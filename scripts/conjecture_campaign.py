"""Random-pair campaign against the Maassen-Uffink style bound.

A command-line front end to ``moduncert.campaign``: draws random
Parseval frame pairs over random fiber counts, runs the projected
gradient search on each, and reports the worst gap
S_A(x) + S_B(x) - (-2 ln mu) found.  A persistent negative gap beyond
tolerance at an interior point is a counterexample candidate; the run
then exits 2 and the report carries the witness vector so the claim can
be replayed with `moduncert search` or checked directly with
`recompute_gap`.

Run from the repository root:

    python scripts/conjecture_campaign.py --pairs 50 --restarts 32 --seed 1
"""

import argparse
import json
import sys
from pathlib import Path

from moduncert import SEARCH_GAP_TOL, campaign, is_counterexample_candidate
from moduncert.verify_search import search_result_to_dict


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--restarts", type=int, default=32)
    ap.add_argument("--max-iters", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--n-max", type=int, default=6)
    ap.add_argument("--m-max", type=int, default=10)
    ap.add_argument("--d-max", type=int, default=4)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()
    records, candidates = [], []
    for spec, _fa, _fb, result in campaign(args.pairs, args.restarts, args.max_iters, args.seed,
                                           args.n_max, args.m_max, args.d_max):
        candidate = is_counterexample_candidate(result, SEARCH_GAP_TOL)
        rec = {**spec, "mu": result.mu, "bound_value": result.bound_value,
               "best_gap": result.best_gap, "boundary_grazing": result.boundary_grazing,
               "converged": result.converged, "candidate": candidate}
        if candidate:
            rec["witness"] = search_result_to_dict(result)
            candidates.append(spec["pair"])
        records.append(rec)
    report = {
        "kind": "campaign",
        "pairs": args.pairs, "restarts": args.restarts, "max_iters": args.max_iters,
        "seed": args.seed, "gap_tol": SEARCH_GAP_TOL,
        "n_max": args.n_max, "m_max": args.m_max, "d_max": args.d_max,
        "worst_gap": min((r["best_gap"] for r in records), default=float("inf")),
        "candidate_pairs": candidates,
        "records": records,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"campaign: pairs={args.pairs} worst_gap={report['worst_gap']:.3e} "
          f"candidates={len(candidates)}")
    if candidates:
        print(f"counterexample candidates at pairs {candidates}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
