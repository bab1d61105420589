# Correlation profiles of the named state families at a small size,
# computed twice: once from the closed forms and once by brute-force
# minimization over set partitions of the actual density matrix.

from corrweave import (ClosedFormFamily, WeightScheme, cf_profile,
                       make_bell_product, make_classical,
                       make_classical_pair_product, make_dicke, make_ghz,
                       profile, weaving)

N = 4

FAMILIES = [
    ("classical-pair-product", make_classical_pair_product(N)),
    ("classical", make_classical(N)),
    ("bell-product", make_bell_product(N)),
    ("ghz", make_ghz(N)),
    ("dicke-1", make_dicke(N, 1)),
    ("dicke-half", make_dicke(N, N // 2)),
]


def main():
    scheme = WeightScheme.order_weighted(N)
    print(f"N = {N}, weights omega_k = k-1, all values in bits")
    print(f"{'family':24s} {'genuine(2..N)':>22s} {'total':>8s} "
          f"{'weaving':>8s} {'dev':>9s}")
    for name, state in FAMILIES:
        cf = cf_profile(ClosedFormFamily(name, N))
        weave = weaving(cf, scheme)

        # cross-check every number against the matrix pipeline
        prof = profile(state, mode="brute")
        dev = max(
            max(abs(a - b) for a, b in zip(cf.genuine, prof.genuine)),
            abs(cf.total - prof.total),
            abs(weave - weaving(prof, scheme)),
        )
        cell = " ".join(f"{g:6.3f}" for g in cf.genuine)
        print(f"{name:24s} {cell:>22s} {cf.total:8.3f} {weave:8.3f} {dev:9.1e}")


if __name__ == "__main__":
    main()
