"""Tempered-distribution pairings of deformed heat supertraces.

The pairing integrates the regularized zeta invariant against the Fourier
transform of a Gaussian test function.  The two integration orders (heat
time innermost or outermost) coincide by construction, because per
eigenpair the heat-time integral telescopes to the regularized trace; as
the deformation strength grows the pairing converges to the limit invariant
times f(0).  Each pairing is a 65-node Gauss-Kronrod quadrature whose
embedded 32-node Gauss rule certifies it with an error estimate.
"""

import wittenlab as wl
from wittenlab import zdist


def main():
    system = wl.CircleWittenSystem.from_arc_weights(
        [0.0, 2.2], [1, 0], [-0.45, 2.2], r=0.3, N=256
    )
    gauss = zdist.GaussianTestFunction(sigma=1.0)
    target = (
        wl.instanton_data_circle(system).a1 + wl.mathai_quillen_1d(system).value
    )
    print("observed limit value:", round(target, 6))

    print("\n  mu     inner order     outer order")
    for mu in (10.0, 20.0, 30.0):
        inner = zdist.pair_inner_first(system, mu, gauss)
        outer = zdist.pair_outer_first(system, mu, gauss)
        print(
            f"  {mu:4.0f}  {inner.value.real:+.10f}  {outer.value.real:+.10f}"
        )

    specs = [zdist.GaussianTestFunction(1.0), zdist.GaussianTestFunction(0.5)]
    rep = zdist.delta_limit_report(system, [10.0, 20.0, 30.0], specs, target)
    print("\nextrapolated limits per test-function width:")
    for sigma, est in sorted(rep.extrapolated.items()):
        print(f"  sigma={sigma}: {est:+.6f}")
    print("truncation radius:", outer.radius,
          " omitted f-hat mass (error <= mass x sup |zeta|):",
          f"{outer.tail_bound:.1e}",
          f" Gauss-Kronrod nodes: {outer.node_count}",
          f" quadrature estimate (mu={outer.mu:g}): {outer.quadrature_error:.1e}")


if __name__ == "__main__":
    main()
