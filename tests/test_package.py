import importlib.util
import inspect
from pathlib import Path

import corrweave
import corrweave.cli
import corrweave.correlations


def test_public_names_resolve_once():
    names = corrweave.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(corrweave, n)] == []


def test_public_names_match_the_imports():
    imported = {n for n, v in vars(corrweave).items()
                if not n.startswith("_") and not inspect.ismodule(v)}
    assert imported == set(corrweave.__all__)


def test_benchmark_tracer_puts_back_every_name_it_wraps():
    # the tracer wraps names by module and attribute; a name the package drops
    # or moves fails its install
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    profile, entropy = corrweave.cli.profile, corrweave.correlations.marginal_entropy
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._saved)
        assert corrweave.cli.profile is not profile
        assert corrweave.correlations.marginal_entropy is not entropy
    finally:
        tracer.uninstall()
    assert len(patched) == len(tracing.FUNCTIONS) + len(tracing.METHODS) + 1
    assert [(owner, attr) for owner, attr, original in patched
            if owner.__dict__[attr] is not original] == []
    assert corrweave.cli.profile is profile
    assert corrweave.correlations.marginal_entropy is entropy
