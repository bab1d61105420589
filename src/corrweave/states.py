"""Constructors for the named state families and the CLI's state vocabulary."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ArgumentError, CapacityError
from .partitions import integer
from .tensor import DensityState, _dense_dim, _power_within, tensor_product

#: Largest classical table a family builder makes, counted in digits
#: (entries times parties).  ``classical:N`` has 2N digits and
#: ``classical-pair-product:N`` has 2^(N/2) N; the cap admits
#: ``classical:65536`` and ``classical-pair-product:24``.
MAX_CLASSICAL_DIGITS = 1 << 17


def _check_table(base: int, n: int, power: int = 1) -> None:
    """Raise a CapacityError, before anything is built, when a table of
    ``base ** power`` digit strings of ``n`` digits exceeds the cap."""
    if _power_within(base, power, MAX_CLASSICAL_DIGITS // n) is None:
        entries = (_power_within(base, power, 1 << 64)
                   or (base if power == 1 else f"{base}^{power}"))
        raise CapacityError(
            f"classical table of {entries} entries x {n} digits exceeds the "
            f"capacity limit of {MAX_CLASSICAL_DIGITS} digits")


def make_ghz(n: int, d: int = 2) -> DensityState:
    """N-party GHZ state ``(|0..0> + |1..1>)/sqrt(2)``.

    Only levels 0 and 1 are superposed for every local dimension ``d``; the
    state lives in a two-level subspace of each qudit.
    """
    if integer(n, "party count n") < 1 or integer(d, "local dimension d") < 2:
        raise ArgumentError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    dim = _dense_dim({d: n})
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1 / math.sqrt(2)
    amps[(dim - 1) // (d - 1)] = 1 / math.sqrt(2)  # the repdigit 1..1 in base d
    return DensityState.from_amplitudes(amps, (d,) * n, validate=False)


def make_classical(n: int, d: int = 2) -> DensityState:
    """Uniform mixture of the ``d`` repeated digit strings ``|ii...i>``.

    Fully correlated classical state; stored as a sparse probability table,
    so ``n`` far beyond the dense capacity is fine, up to
    ``MAX_CLASSICAL_DIGITS`` digits in the table.
    """
    if integer(n, "party count n") < 1 or integer(d, "local dimension d") < 2:
        raise ArgumentError(f"need n >= 1 and d >= 2, got n={n}, d={d}")
    _check_table(d, n)
    table = {(i,) * n: 1.0 / d for i in range(d)}
    return DensityState.from_probabilities(table, (d,) * n, validate=False)


def make_dicke(n: int, m: int) -> DensityState:
    """N-qubit Dicke state: equal superposition of all strings with ``m`` ones."""
    if integer(n, "party count n") < 1 or not 0 <= integer(m, "excitation count m") <= n:
        raise ArgumentError(f"need 0 <= m <= n with n >= 1, got n={n}, m={m}")
    amps = np.zeros(_dense_dim({2: n}), dtype=complex)
    index = np.arange(amps.size)
    ones = sum((index >> i) & 1 for i in range(n))  # popcount of each index
    amps[ones == m] = 1 / math.sqrt(math.comb(n, m))
    return DensityState.from_amplitudes(amps, (2,) * n, validate=False)


def make_bell_product(n: int, d: int = 2) -> DensityState:
    """Product of ``n/2`` maximally entangled pairs on adjacent subsystems.

    Each pair is ``sum_i |ii> / sqrt(d)``; ``n`` must be even.
    """
    if integer(n, "party count n") < 2 or n % 2 or integer(d, "local dimension d") < 2:
        raise ArgumentError(f"need even n >= 2 and d >= 2, got n={n}, d={d}")
    _dense_dim({d: n})
    pair = np.zeros(d * d, dtype=complex)
    for i in range(d):
        pair[i * d + i] = 1 / math.sqrt(d)
    amps = pair
    for _ in range(n // 2 - 1):
        amps = np.kron(amps, pair)
    return DensityState.from_amplitudes(amps, (d,) * n, validate=False)


def make_classical_pair_product(n: int) -> DensityState:
    """Product of ``n/2`` perfectly correlated classical bit pairs."""
    if integer(n, "party count n") < 2 or n % 2:
        raise ArgumentError(f"need even n >= 2, got n={n}")
    pairs = n // 2
    _check_table(2, n, pairs)  # one table entry per pair-bit string
    table = {}
    for bits in range(2 ** pairs):
        key = []
        for j in range(pairs):
            b = (bits >> (pairs - 1 - j)) & 1
            key += [b, b]
        table[tuple(key)] = 0.5 ** pairs
    return DensityState.from_probabilities(table, (2,) * n, validate=False)


def make_a_family(k: int, a: float) -> DensityState:
    """K-qubit state ``a|0..0> + sqrt(1-a^2)|1..1>``.

    Interpolates between product states (``a`` in {0, 1}) and the GHZ
    state (``a = 1/sqrt(2)``); its correlations of every order scale with
    the binary entropy of ``a^2``.
    """
    if integer(k, "party count k") < 1:
        raise ArgumentError(f"need k >= 1, got {k}")
    if not 0.0 <= a <= 1.0:
        raise ArgumentError(f"need 0 <= a <= 1, got {a}")
    amps = np.zeros(_dense_dim({2: k}), dtype=complex)
    amps[0] = a
    amps[-1] = math.sqrt(max(1.0 - a * a, 0.0))
    return DensityState.from_amplitudes(amps, (2,) * k, validate=False)


# -- CLI vocabulary ------------------------------------------------------

#: Spec extra field per parameter kind: (parser, what it is, default).
_PARAMS = {"d": (int, "local dimension", 2),
           "m": (int, "excitation count", None),
           "a": (float, "amplitude", None)}


def _families():
    # imported on use: the registry module imports this module's constructors
    from .closed_forms import FAMILIES
    return FAMILIES


def _number(kind, text: str, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ArgumentError(f"{what} {text!r} is not "
                            f"{'an integer' if kind is int else 'a number'}") from None


@dataclass(frozen=True)
class StateFamily:
    """Parsed family spec ``family:N[:extra]``: a named constructor plus
    its parameters.  :data:`corrweave.closed_forms.FAMILIES` declares each
    family's spec names and extra field (``d``, ``m`` or ``a``).
    """

    family: str
    n: int
    d: int = 2
    m: Optional[int] = None
    a: Optional[float] = None

    @classmethod
    def parse(cls, text: str) -> "StateFamily":
        families = _families().values()
        names = {alias: f for f in families
                 for alias in ((f.name,) if f.spec else ()) + f.aliases}
        parts = text.strip().split(":")
        fam = names.get(parts[0])
        if fam is None:
            choices = ", ".join(f.name for f in families if f.spec)
            raise ArgumentError(f"unknown family {parts[0]!r}; choose from {choices}")
        if len(parts) < 2:
            raise ArgumentError(f"family spec {text!r} is missing the party count")
        n = _number(int, parts[1], "party count")
        if len(parts) > 3:
            raise ArgumentError(f"too many fields in family spec {text!r}")
        extra = parts[2] if len(parts) > 2 else None
        if fam.param is None:
            if extra is not None:
                raise ArgumentError(f"{fam.name} takes no extra parameter")
            return cls(fam.name, n)
        kind, what, default = _PARAMS[fam.param]
        if extra is None:
            if default is None:
                raise ArgumentError(
                    f"{fam.name} spec needs the {what}: {fam.name}:{n}:{fam.param}")
            return cls(fam.name, n)
        return cls(fam.name, n, **{fam.param: _number(kind, extra, what)})

    def build(self) -> DensityState:
        return _families()[self.family].build(self)

    def label(self) -> str:
        param = _families()[self.family].param
        value = getattr(self, param) if param else None
        if value is None or value == _PARAMS[param][2]:
            return f"{self.family}:{self.n}"
        return f"{self.family}:{self.n}:{value!r}"
