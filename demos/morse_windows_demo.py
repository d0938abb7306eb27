"""Instanton-graph spectral asymptotics.

Tight graphs (constant per-index escape cost a_k) have their nonzero small
spectrum confined to a band of width e^{-2 a_k mu}; rescaling by the leading
factor exposes a mu-stable window.  The leading equal-weight complex also
controls the deformed differential up to exponentially small corrections.
"""

from wittenlab import morse


def main():
    g1 = morse.InstantonGraph(
        [("p", 1), ("q", 0)],
        [("p", "q", 1, -0.45), ("p", "q", -1, -2.2)],
    )
    g2 = morse.InstantonGraph(
        [("P", 1), ("Q", 0)],
        [("P", "Q", 1, -0.45), ("P", "Q", -1, -1.7)],
    )
    product = morse.graph_tensor(g1, g2)
    rep = morse.tightness_check(product)
    print("product graph counts:", product.counts, " tight:", rep.tight,
          " costs:", tuple(round(a, 3) for a in rep.index_costs))

    print("\nrescaled nonzero windows across the strength sweep:")
    for mu in (10.0, 20.0, 30.0, 40.0):
        wins = morse.small_spectrum_window(product, complex(mu, 0.0))
        text = "  ".join(
            "[" + ", ".join(f"{v:.4f}" for v in w) + "]" for w in wins
        )
        print(f"  mu={mu:4.0f}: {text}")

    print("\nleading-part decay of the deformed differential:")
    slopes = morse.leading_decay_fit(g1, [2.0, 3.0, 4.0, 5.0])
    print("  fitted log-slope:", round(slopes[0][0], 4),
          " (subleading gap 2.2 - 0.45 = 1.75)")

    print("\nprojection law (deformed ratio against e^{a_k}):")
    devs, rates = morse.projection_law_check(product, [2.0, 4.0, 6.0, 8.0])
    for k, vals in devs.items():
        print(f"  degree {k}: deviations", ["%.2e" % v for v in vals],
              " rate", round(rates[k], 3))

    print("\nprescription equation (even top index, boundary strengths):")
    c0, cn = morse.prescribe_tau(2, 1, 1, 2, 1, z_baseline=0.0, tau=5.0)
    print(f"  tau=+5 -> c0={c0:.6f}, cn={cn:.6f}")
    c0, cn = morse.prescribe_tau(2, 1, 1, 2, 1, z_baseline=0.0, tau=-3.0)
    print(f"  tau=-3 -> c0={c0:.6f}, cn={cn:.6f}")


if __name__ == "__main__":
    main()
