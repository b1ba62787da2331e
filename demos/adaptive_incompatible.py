"""Adaptive refinement for incompatible data: u0 = 1 against zero lateral values.

The exact solution jumps between the initial datum and the boundary
condition at the two bottom corners of the space-time rectangle.  The
adaptive loop localizes exactly there: the share of elements near t = 0
grows far beyond the area share, the smallest elements shrink
geometrically at the corners, and the estimator decreases on every level
(slowly - this singularity caps the achievable rate).

Writes runlog.csv and mesh_final.txt next to this script unless an output
directory is given on the command line.  The run stops after 18 refinement
steps, at 1,422 dofs; ``--max-dofs N`` runs on until a level has N dofs
instead.  It prints eta/eta_0, the rate s of eta ~ dofs^s fitted over
the second half of the levels, and the wall seconds and peak RSS of the
process so far (the writes come after; the README gives both as measured
for the commands below):

    python demos/adaptive_incompatible.py --max-dofs 367000

gives eta/eta_0 = 0.208 at 367,596 dofs and s = -0.145; ``--max-dofs
106000`` ends at 132,884 dofs (eta/eta_0 = 0.244).  ``--degree 2`` runs
the same loop at p=2:

    python demos/adaptive_incompatible.py --degree 2 --max-dofs 100000

first reaches eta/eta_0 <= 0.1 at 58,922 dofs (0.098) and ends at 107,858
dofs with eta/eta_0 = 0.074 and s = -0.398.
"""

import argparse
import resource
import time
from pathlib import Path

import numpy as np

from stfosls import (
    MarkingConfig,
    MarkStrategy,
    StopCriteria,
    make_problem,
    parabolic_system,
    run,
    uniform_initial_mesh,
    write_runlog_csv,
)
from stfosls.mesh import write_mesh
from stfosls.spaces import affine_maps


def main(out_dir=None, max_dofs=None, degree=1):
    start = time.perf_counter()
    out = Path(out_dir) if out_dir else Path(__file__).parent / "out_incompatible"
    out.mkdir(parents=True, exist_ok=True)

    problem, _ = make_problem("incompatible")
    system = parabolic_system(problem)
    mesh0 = uniform_initial_mesh(1.0, (0.0, 1.0), 2, 2)
    marking = MarkingConfig(MarkStrategy.DOERFLER, 0.5)
    stop = StopCriteria(max_iterations=18) if max_dofs is None else StopCriteria(max_dofs=max_dofs)
    log = run(system, mesh0, degree, stop, marking)

    print(f"{'level':>5} {'dofs':>7} {'elements':>9} {'estimator':>12} {'marked':>7}")
    for record in log.records:
        print(
            f"{record.level:5d} {record.dofs:7d} {record.elements:9d} "
            f"{record.estimator:12.4e} {record.marked:7d}"
        )

    final = log.final_mesh
    coords, _, det = affine_maps(final)
    tmin = coords[0].min(axis=0)
    share = float(np.mean(tmin < 0.1))
    print(f"\nfinal mesh: {final.n_elements} elements")
    print(f"share of elements touching t < 0.1: {share:.2f} (area share is 0.10)")
    print(f"smallest element diameter: {np.sqrt(det.min()):.2e}")
    eta, dofs = log.estimators(), log.dofs()
    print(f"estimator reduced by factor {eta[0] / eta[-1]:.2f}: eta/eta_0 = {eta[-1] / eta[0]:.3f}")
    half = len(eta) // 2
    rate = np.polyfit(np.log(dofs[half:]), np.log(eta[half:]), 1)[0]
    print(f"fitted rate over levels {half}-{len(eta) - 1}: eta ~ dofs^{rate:.3f}")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(f"wall {time.perf_counter() - start:.1f} s, peak RSS {peak_mb:.0f} MB")

    write_runlog_csv(log, out / "runlog.csv")
    write_mesh(final, out / "mesh_final.txt")
    print(f"wrote {out / 'runlog.csv'} and {out / 'mesh_final.txt'}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default=None, help="output directory")
    parser.add_argument("--max-dofs", type=int, default=None,
                        help="refine until a level has this many dofs")
    parser.add_argument("--degree", type=int, choices=(1, 2), default=1,
                        help="polynomial degree p (default 1)")
    args = parser.parse_args()
    main(args.out_dir, args.max_dofs, args.degree)
