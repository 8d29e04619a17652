"""Radar information rate vs sensing cluster size, analytic and simulated.

Run at two densities: the normalized regime (0.1 stations per unit area)
where the factorized rate integral tracks the simulation within a few
percent for N >= 3, and the sparse regime (1e-4 /m^2) where the metric is
dominated by rare near-target deployments and the factorization loses most
of the rate - the simulator is the reference there.
"""

import sys

from isacnet import McConfig, SystemParams, mc_radar_rate, radar_rate

TRIALS = int(sys.argv[1]) if len(sys.argv) > 1 else 150_000


def main():
    for lam in (0.1, 1e-4):
        print(f"\ndensity lam = {lam:g} (trials = {TRIALS:,})")
        print(f"{'N':>3} {'analytic':>9} {'simulated':>10} {'rel diff':>9}")
        for n in (1, 2, 3, 4):
            params = SystemParams(lam=lam, mt=10, mr=6, beta=4.0,
                                  ps=0.5, pc=0.5, N=n)
            analytic = radar_rate(params).value
            mc = mc_radar_rate(params, McConfig(trials=TRIALS, seed=30 + n))
            rel = (analytic - mc.value) / mc.value
            print(f"{n:>3} {analytic:9.4f} {mc.value:10.4f} {rel:+9.1%}")


if __name__ == "__main__":
    main()
