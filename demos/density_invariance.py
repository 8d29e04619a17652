"""Deployment density does not move the coverage probability.

Denser deployments shorten the serving distances and raise the interference
in the same proportion, so the SIR distribution is density-free.  The
closed form carries no density argument at all, and neither does the
simulator: it draws the deployment in arrival units pi*lam*r^2, where the
SIR does not depend on lam, so `mc_coverage` never reads it.  Run with one
seed, the curves at two decades of density are identical by construction
and the printed spread is exactly 0; any nonzero spread between densities
would be seed noise, not physics.
"""

import sys

import numpy as np

from isacnet import McConfig, SystemParams, coverage_closed_form, mc_coverage

TRIALS = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000


def main():
    t_db = np.arange(-10.0, 21.0, 5.0)
    t_lin = 10.0 ** (t_db / 10.0)
    densities = (1e-5, 1e-4, 1e-3)
    sims = {}
    for lam in densities:
        params = SystemParams(lam=lam, mt=10, beta=4.0, ps=0.5, pc=0.5, L=1)
        sims[lam] = mc_coverage(params, t_lin,
                                McConfig(trials=TRIALS, seed=10)).values
    closed = [coverage_closed_form(SystemParams(L=1), t) for t in t_lin]

    header = "  ".join(f"lam={lam:g}" for lam in densities)
    print(f"{'T [dB]':>7}  {header}  closed-form")
    for i, td in enumerate(t_db):
        row = "  ".join(f"{sims[lam][i]:8.4f}" for lam in densities)
        print(f"{td:7.0f}  {row}  {closed[i]:11.4f}")
    spread = max(np.max(np.abs(sims[a] - sims[b]))
                 for a in densities for b in densities)
    print(f"\nlargest spread between density curves: {spread:g}")


if __name__ == "__main__":
    main()
