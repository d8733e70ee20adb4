"""Command-line surface: generators, bound checks, and report emission.

Every run is fully specified by its command line (flags only, no config
files), and every artifact is JSON with complex numbers as [re, im]
pairs, so runs diff cleanly.  A verify run encodes its per-trial columns
once (``NumberTexts``) and lays out both its report and its CSV from those
texts.  Count and seed flags are plain ints whose ranges the library
function each command calls checks before anything is written, so a bad
value exits 1 with the library's message.  Exit codes: 0 success and no
violations, 1 usage or I/O error, 2 inequality violation or counterexample
candidate (a machine-checkable signal for CI).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from . import frames as frames_mod
from . import module_space as module_mod
from . import verify_search as search_mod
from .entropy_bounds import buzano_check, coherence, entropy
from .frames import Frame, gen_fourier_pair, gen_random_parseval
from .module_space import ModuleVector, random_unit_vector
from .verify_search import (
    NumberTexts,
    campaign,
    is_counterexample_candidate,
    minimize_entropy_sum,
    proof_chain_check,
    report_to_dict,
    search_result_to_dict,
    trials_to_csv,
    verify,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2

OUT_DIR_ENV = "MODUNCERT_OUT_DIR"

_GEN_KINDS = ("onb", "random-parseval", "fourier-pair", "unit-vector")


def _resolve(path: Path) -> Path:
    """Resolve relative output paths against $MODUNCERT_OUT_DIR when set."""
    base = os.environ.get(OUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _render_value(value) -> str:
    """One top-level value of a report, as ``json.dumps(doc, indent=2)`` lays it out.

    A non-empty flat list of ints and floats (``trial_gaps``,
    ``trial_worst_fiber``) is encoded as ``NumberTexts``, one call of the
    C encoder, and its texts are laid out one per indented line;
    ``indent=2`` alone would take the pure-Python encoder, one element at
    a time.  ``NumberTexts`` that a caller encoded already, to share them,
    are laid out the same way.  Scalars and empty containers lay out the
    same without ``indent``, so they take the C encoder too.  Every other
    value is encoded with ``indent=2`` and moved one level in.
    """
    if type(value) is list and value and set(map(type, value)) <= {int, float}:
        value = NumberTexts(value)
    if type(value) is NumberTexts and value:
        return "[\n    " + ",\n    ".join(value) + "\n  ]"
    if not value or not isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def render_report(command: str, body: dict) -> str:
    """The text of a report: the standard header, then the body's keys in order.

    Byte for byte what ``json.dumps({"header": header, **body}, indent=2)``
    gives, followed by a newline.
    """
    header = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "tool": "moduncert",
        "version": __version__,
        "command": command,
    }
    items = {"header": header, **body}.items()
    return "{\n  " + ",\n  ".join(f"{json.dumps(key)}: {_render_value(value)}"
                                  for key, value in items) + "\n}\n"


def _write_json(path: Path, command: str, body: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(command, body))


def _load_json(path: Path):
    try:
        text = path.read_text()
    except OSError as e:
        raise ValueError(f"{path}: cannot read: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"{path}: malformed JSON: {e}") from e


def _load_frame(path: Path) -> Frame:
    return frames_mod.from_json(_load_json(path), what=f"{path}")


def _load_vector(path: Path) -> ModuleVector:
    return module_mod.from_json(_load_json(path), what=f"{path}")


def _cmd_gen(args) -> int:
    if args.m is not None and args.kind != "random-parseval":
        raise ValueError(f"--m applies only to --kind random-parseval, not {args.kind}")
    if args.seed is not None and args.kind == "fourier-pair":
        raise ValueError("--seed does not apply to --kind fourier-pair")
    seed = 1 if args.seed is None else args.seed
    out = _resolve(args.out)
    if args.kind == "fourier-pair":
        fra, frb = gen_fourier_pair(args.n, args.d)
        out.mkdir(parents=True, exist_ok=True)
        for name, fr in (("a.json", fra), ("b.json", frb)):
            _write_json(out / name, "gen", frames_mod.to_json(fr))
        print(f"wrote {out / 'a.json'} {out / 'b.json'} (fourier-pair n={args.n} d={args.d})")
        return EXIT_OK
    if args.kind in ("onb", "random-parseval"):     # an ONB is the m = n Parseval frame
        fr = gen_random_parseval(args.n, args.n if args.m is None else args.m, args.d, seed)
        body, default_name = frames_mod.to_json(fr), "frame.json"
    else:
        x = random_unit_vector(args.n, args.d, seed)
        body, default_name = module_mod.to_json(x), "vector.json"
    if out.is_dir():
        out = out / default_name
    _write_json(out, "gen", body)
    print(f"wrote {out} ({args.kind} n={args.n} d={args.d} seed={seed})")
    return EXIT_OK


def _cmd_entropy(args) -> int:
    frame = _load_frame(args.frame)
    x = _load_vector(args.vector)
    ev = entropy(frame, x, strict_unit_frame=args.strict)
    reals = ev.value.values.real
    if args.out is not None:
        _write_json(_resolve(args.out), "entropy", {
            "kind": "entropy",
            "value": module_mod.pairs_to_json(ev.value.values),
            "in_domain": ev.in_domain,
            "zero_coefficient_count": ev.zero_coefficient_count,
        })
    print(f"entropy: min={reals.min():.6f} max={reals.max():.6f}"
          f" in_domain={str(ev.in_domain).lower()} zeros={ev.zero_coefficient_count}")
    return EXIT_OK


def _cmd_coherence(args) -> int:
    mu = coherence(_load_frame(args.frame_a), _load_frame(args.frame_b))
    if args.out is not None:
        _write_json(_resolve(args.out), "coherence", {"kind": "coherence", "mu": mu})
    print(f"{mu:.6f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    frame_a = _load_frame(args.frame_a)
    frame_b = _load_frame(args.frame_b)
    report = verify(frame_a, frame_b, args.bound.replace("-", "_"), args.trials, args.seed)
    body = report_to_dict(report)
    if args.out is not None or args.csv is not None:    # encoded once, for report and CSV
        for key in ("trial_gaps", "trial_worst_fiber"):
            body[key] = NumberTexts(body[key])
    if args.out is not None:
        _write_json(_resolve(args.out), "verify", body)
    if args.csv is not None:
        path = _resolve(args.csv)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(trials_to_csv(body["trial_gaps"], body["trial_worst_fiber"]), newline="")
    verdict = "OK" if not report.violations else f"{len(report.violations)} VIOLATIONS"
    print(f"verify: bound={report.bound_value:.6f} ({report.bound_kind}, mu={report.mu:.6f})"
          f" trials={report.trials} min_gap={report.min_gap:.6f} -> {verdict}")
    return EXIT_VIOLATION if report.violations else EXIT_OK


def _cmd_buzano(args) -> int:
    res = buzano_check(_load_vector(args.x), _load_vector(args.y), _load_vector(args.z))
    print(f"buzano: lhs={res.lhs:.6f} rhs={res.rhs:.6f} holds={str(res.holds).lower()}")
    return EXIT_OK if res.holds else EXIT_VIOLATION


def _cmd_search(args) -> int:
    frame_a = _load_frame(args.frame_a)
    frame_b = _load_frame(args.frame_b)
    result = minimize_entropy_sum(frame_a, frame_b, args.bound.replace("-", "_"),
                                  restarts=args.restarts, max_iters=args.max_iters,
                                  seed=args.seed)
    if args.out is not None:
        _write_json(_resolve(args.out), "search", search_result_to_dict(result))
    candidate = is_counterexample_candidate(result)
    verdict = "CANDIDATE" if candidate else ("boundary-grazing" if result.boundary_grazing else "OK")
    print(f"search: bound={result.bound_value:.6f} ({result.bound_kind}, mu={result.mu:.6f})"
          f" best_gap={result.best_gap:.6f} restarts={result.restarts}"
          f" converged={str(result.converged).lower()} -> {verdict}")
    return EXIT_VIOLATION if candidate else EXIT_OK


def _cmd_campaign(args) -> int:
    records, candidates = [], []
    for spec, _fa, _fb, result in campaign(args.pairs, args.restarts, args.max_iters, args.seed,
                                           args.n_max, args.m_max, args.d_max):
        candidate = is_counterexample_candidate(result)
        rec = {**spec, "mu": result.mu, "bound_value": result.bound_value,
               "best_gap": result.best_gap, "boundary_grazing": result.boundary_grazing,
               "converged": result.converged,
               "iterations_per_start": list(result.iterations_per_start),
               "runs_at_max_iters": result.runs_at_max_iters,
               "newton_steps": result.newton_steps,
               "line_search_backtracks": result.line_search_backtracks, "candidate": candidate}
        if candidate:
            rec["witness"] = search_result_to_dict(result)
            candidates.append(spec["pair"])
        records.append(rec)
    worst_gap = min(r["best_gap"] for r in records)
    if args.out is not None:
        _write_json(_resolve(args.out), "campaign", {
            "kind": "campaign",
            "pairs": args.pairs, "restarts": args.restarts, "max_iters": args.max_iters,
            "seed": args.seed, "gap_tol": search_mod.SEARCH_GAP_TOL,
            "n_max": args.n_max, "m_max": args.m_max, "d_max": args.d_max,
            "worst_gap": worst_gap, "candidate_pairs": candidates, "records": records,
        })
    print(f"campaign: pairs={args.pairs} worst_gap={worst_gap:.3e} candidates={len(candidates)}")
    if candidates:
        print(f"counterexample candidates at pairs {candidates}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_chain(args) -> int:
    res = proof_chain_check(_load_frame(args.frame_a), _load_frame(args.frame_b),
                            _load_vector(args.x))
    print(f"chain: holds={str(res.holds).lower()}")
    return EXIT_OK if res.holds else EXIT_VIOLATION


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every ``main`` call.

    Parsing leaves it unchanged (each call gets a fresh namespace), so
    callers must not modify it either.
    """
    parser = argparse.ArgumentParser(
        prog="moduncert",
        description="Entropy uncertainty bounds over C(X)-modules: generate frames, "
                    "verify bounds, search for counterexamples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    bounds = [kind.replace("_", "-") for kind in search_mod.BOUND_KINDS]

    def add_command(name, run, summary, *inputs, out=True, seed=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        for arg in inputs:
            p.add_argument(arg, type=Path)
        if out:
            p.add_argument("--out", type=Path, default=None, help="output JSON path")
        if seed:
            p.add_argument("--seed", type=int, default=1)
        return p

    p = add_command("gen", _cmd_gen, "generate frames or unit vectors", out=False)
    p.add_argument("--out", type=Path, required=True, help="output JSON path or directory")
    p.add_argument("--seed", type=int, default=None)   # 1 where it applies
    p.add_argument("--kind", choices=_GEN_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--d", type=int, default=1)

    p = add_command("entropy", _cmd_entropy, "modular Shannon entropy of a vector in a frame",
                    "frame", "vector")
    p.add_argument("--strict", action="store_true",
                   help="require the frame itself to have unit inner products")

    add_command("coherence", _cmd_coherence, "max cross inner product norm of two frames",
                "frame_a", "frame_b")

    p = add_command("verify", _cmd_verify, "Monte Carlo check of an uncertainty bound",
                    "frame_a", "frame_b", seed=True)
    p.add_argument("--bound", choices=bounds, default="deutsch")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--csv", type=Path, default=None, help="per-trial CSV path")

    add_command("buzano", _cmd_buzano, "evaluate both sides of the Buzano inequality",
                "x", "y", "z", out=False)

    p = add_command("search", _cmd_search, "minimize the entropy sum against a bound",
                    "frame_a", "frame_b", seed=True)
    p.add_argument("--bound", choices=bounds, default="maassen-uffink")
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=2000)

    p = add_command("campaign", _cmd_campaign,
                    "search random frame pairs against the coherence bound", seed=True)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=2000)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--m-max", type=int, default=10)
    p.add_argument("--d-max", type=int, default=4)

    add_command("chain", _cmd_chain, "check the pairwise product bound behind the proof",
                "frame_a", "frame_b", "x", out=False)
    return parser


def main(argv=None) -> int:
    """Run one command; returns the process exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; remap to the documented usage code
        return EXIT_ERROR if e.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except (ValueError, OSError) as e:   # the package's own errors subclass ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
