"""Command-line front end.

Subcommands: solve, unfold, check, mc, gen-reduction, stats. Exit codes:
0 = positive verdict (solution found / certificate valid / formula holds),
1 = negative verdict, 2 = usage error, document error, or unsupported input.
Output documents are UTF-8 JSON on stdout; warnings go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from . import ltl, reduction, synthesis
from .arena import (
    Arena,
    Lasso,
    multi_energy_check_unbounded,
    parse_arena,
    serialize_arena,
    validate_lasso,
)
from .errors import CarefulSynthError, UnderflowError, load_json, member
from .unfolding import checked_bounds, lift, render_ustate, to_dot, unfold, unfolded_to_arena
from .zerosum import ParityAutomaton, parse_dpa

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_ERROR


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CarefulSynthError(f"cannot read {path}: {getattr(e, 'strerror', e)}") from None


def _emit(doc: dict, pretty_extra: Optional[str] = None) -> None:
    print(json.dumps(doc, indent=2, sort_keys=False))
    if pretty_extra:
        print(pretty_extra)


def _parse_bounds_flag(text: str) -> tuple[int, ...]:
    try:
        # ASCII digits only, as `str` writes them: int() also reads "1_0",
        # " 3" or "٣"
        digits = [v.removeprefix("-") for v in text.split(",")]
        if not all(d.isascii() and d.isdigit() for d in digits):
            raise ValueError
        bounds = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bounds must be comma-separated integers, got {text!r}"
        ) from None
    if any(v < 0 for v in bounds):
        raise argparse.ArgumentTypeError("bounds must be nonnegative")
    return bounds


def _resolve_bounds(a: Arena, flag: Optional[tuple[int, ...]]):
    if flag is not None:
        if a.bounds is not None and tuple(a.bounds) != flag:
            _warn(
                f"--bounds {','.join(map(str, flag))} overrides the arena's "
                f"bounds {','.join(map(str, a.bounds))}"
            )
        return flag
    return a.bounds


def _load_dpas(pairs: Sequence[str], a: Arena) -> dict[int, ParityAutomaton]:
    dpas: dict[int, ParityAutomaton] = {}
    for pair in pairs:
        player_str, _, path = pair.partition("=")
        if not path or not (player_str.isascii() and player_str.isdecimal()):
            raise CarefulSynthError(f"--dpa expects player=file, got {pair!r}")
        player = int(player_str)
        if not 1 <= player <= a.players:
            raise CarefulSynthError(f"--dpa player {player} out of range")
        if player in dpas:
            raise CarefulSynthError(f"--dpa player {player} given twice")
        dpas[player] = parse_dpa(_read(path))
    return dpas


def _saturation_caveat(result: synthesis.SolveResult) -> None:
    """Bounded verdicts on instances designed for exact counting (e.g.
    generated hardness games) are only trustworthy when saturation never
    fires; warn whenever some reachable step was clipped."""
    if result.clipped:
        _warn(
            "capacity saturation occurred in the reachable unfolding; "
            "for generated reduction instances the verdict is a "
            "semi-decision only"
        )


def _pretty_outcome(profile: synthesis.StrategyProfile) -> str:
    lines = ["", "outcome (state @ resources):"]
    o = profile.outcome
    ustates = [render_ustate(us) for us in zip(o.stem + o.loop, o.trace)]
    stem = " ".join(ustates[: len(o.stem)])
    loop = " ".join(ustates[len(o.stem):])
    lines.append(f"  stem: {stem}")
    lines.append(f"  loop: ({loop})^omega")
    lines.append(f"  winners: {sorted(profile.winners)}")
    return "\n".join(lines)


def _cmd_solve(args) -> int:
    a = parse_arena(_read(args.arena))
    bounds = _resolve_bounds(a, args.bounds)
    if bounds is None:
        return _fail(
            "no capacity bounds given (neither --bounds nor the arena document); "
            "unbounded careful synthesis is undecidable and is refused"
        )
    dpas = _load_dpas(args.dpa, a)
    result = synthesis.solve(a, bounds, dpas=dpas)
    if result.status == synthesis.SolveResult.UNSUPPORTED:
        return _fail(f"unsupported objective: {result.reason}")
    _saturation_caveat(result)
    doc = synthesis.result_to_document(result)
    doc["bounds"] = list(bounds)
    pretty = None
    if args.pretty and result.profile is not None:
        pretty = _pretty_outcome(result.profile)
    _emit(doc, pretty)
    return EXIT_POSITIVE if result.status == synthesis.SolveResult.SOLUTION else EXIT_NEGATIVE


def _cmd_unfold(args) -> int:
    a = parse_arena(_read(args.arena))
    bounds = _resolve_bounds(a, args.bounds)
    if bounds is None:
        return _fail("unfold requires --bounds (or bounds in the arena document)")
    u = unfold(a, bounds)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as f:
                f.write(to_dot(u))
        except OSError as e:
            raise CarefulSynthError(f"cannot write {args.dot}: {e.strerror}") from None
    print(serialize_arena(unfolded_to_arena(u)), end="")
    return EXIT_POSITIVE


def _cmd_check(args) -> int:
    a = parse_arena(_read(args.arena))
    bounds = _resolve_bounds(a, args.bounds)
    if bounds is None:
        return _fail("check requires --bounds (or bounds in the arena document)")
    dpas = _load_dpas(args.dpa, a)
    profile = synthesis.parse_profile(_read(args.profile))
    violations = synthesis.check_certificate(a, bounds, profile, dpas=dpas)
    doc = {
        "verdict": "ok" if not violations else "invalid",
        "violations": violations,
    }
    _emit(doc)
    return EXIT_POSITIVE if not violations else EXIT_NEGATIVE


def _parse_lasso_document(text: str) -> Lasso:
    doc = load_json(text)
    return Lasso(
        stem=tuple(member(doc, "stem", [str], "lasso stem")),
        loop=tuple(member(doc, "loop", [str], "lasso loop")),
    )


def _bounded_careful(a: Arena, bounds: tuple[int, ...], lasso: Lasso) -> tuple[bool, list]:
    """Whether the play stem . loop^omega never enters the sink under
    `bounds`, and the unfolded states of stem + loop before the sink.

    Per resource, one pass of the loop maps the vector x at its head to
    min(x + W, M), W the loop's net cost: with W >= 0 the head never falls
    again after the first pass, with W < 0 it falls by |W| on every pass.
    So two passes and the closing edge decide it: no underflow on them, and
    the head after the second pass is nowhere below the head after the
    first."""
    stem, loop = list(lasso.stem), list(lasso.loop)
    n = len(stem) + len(loop)
    path = stem + loop + loop + loop[:1]
    try:
        ustates = lift(a, bounds, path)
    except UnderflowError as e:
        return False, lift(a, bounds, e.prefix[:-1])[:n]
    careful = all(x <= y for x, y in zip(ustates[n][1], ustates[-1][1]))
    return careful, ustates[:n]


def _cmd_mc(args) -> int:
    a = parse_arena(_read(args.arena))
    bounds = _resolve_bounds(a, args.bounds)
    lasso = _parse_lasso_document(_read(args.lasso))
    validate_lasso(a, lasso)
    phi = ltl.parse_ltl(args.formula)
    stem_labels = [a.labels[s] for s in lasso.stem]
    loop_labels = [a.labels[s] for s in lasso.loop]
    holds = ltl.eval_on_lasso(phi, stem_labels, loop_labels, atoms=a.atoms)
    doc: dict = {
        "holds": holds,
        "energy": {"unbounded_careful": multi_energy_check_unbounded(a, lasso)},
    }
    pretty = None
    if bounds is not None:
        bounds = checked_bounds(a, bounds)
        careful, ustates = _bounded_careful(a, bounds, lasso)
        doc["energy"]["bounded"] = {
            "bounds": list(bounds),
            "careful": careful,
            "trace": [list(c) for _, c in ustates],
        }
        if args.pretty:
            pretty = "\ntrace: " + " ".join(map(render_ustate, ustates))
    _emit(doc, pretty)
    return EXIT_POSITIVE if holds else EXIT_NEGATIVE


def _cmd_gen_reduction(args) -> int:
    ca = reduction.parse_counter_automaton(_read(args.automaton))
    arena = reduction.build_game(ca)
    print(serialize_arena(arena), end="")
    return EXIT_POSITIVE


def _cmd_stats(args) -> int:
    a = parse_arena(_read(args.arena))
    bounds = _resolve_bounds(a, args.bounds)
    doc: dict = {
        "players": a.players,
        "dimensions": a.dimensions,
        "states": len(a.states),
        "edges": len(a.edges),
        "atoms": sorted(a.atoms),
    }
    if bounds is not None:
        u = unfold(a, bounds)
        doc["bounds"] = list(bounds)
        doc["unfolded_states"] = len(u.states)
        doc["unfolded_edges"] = sum(map(len, u.succ))
    _emit(doc)
    return EXIT_POSITIVE


@functools.cache  # once per process: building it costs about 1 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carefulsynth",
        description=(
            "Careful cooperative rational synthesis on multi-player games "
            "with bounded shared resources"
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, pretty=True):
        p.add_argument("--bounds", type=_parse_bounds_flag, default=None,
                       help="capacity vector, e.g. 3,3 (overrides the arena document)")
        if pretty:
            p.add_argument("--pretty", action="store_true",
                           help="append a human-readable trace rendering")

    p = sub.add_parser("solve", help="decide careful synthesis and emit a certificate")
    p.add_argument("arena")
    add_common(p)
    p.add_argument("--dpa", action="append", default=[], metavar="PLAYER=FILE",
                   help="deterministic parity automaton for a player's objective")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("unfold", help="emit the reachable bounded unfolding")
    p.add_argument("arena")
    add_common(p, pretty=False)
    p.add_argument("--dot", default=None, metavar="FILE", help="also write DOT output")
    p.set_defaults(func=_cmd_unfold)

    p = sub.add_parser("check", help="verify a strategy-profile certificate")
    p.add_argument("arena")
    p.add_argument("profile")
    add_common(p, pretty=False)
    p.add_argument("--dpa", action="append", default=[], metavar="PLAYER=FILE")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("mc", help="model-check a formula on a lasso, with energy report")
    p.add_argument("arena")
    p.add_argument("lasso")
    p.add_argument("formula")
    add_common(p)
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("gen-reduction", help="encode a two-counter automaton as an arena")
    p.add_argument("automaton")
    p.set_defaults(func=_cmd_gen_reduction)

    p = sub.add_parser("stats", help="report arena and unfolding sizes")
    p.add_argument("arena")
    add_common(p, pretty=False)
    p.set_defaults(func=_cmd_stats)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except CarefulSynthError as e:
        return _fail(str(e))


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush at
        # exit does not fail again (the SIGPIPE note in the `signal` docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
