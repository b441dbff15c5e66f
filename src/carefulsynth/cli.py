"""Command-line front end.

Subcommands: solve, unfold, check, mc, gen-reduction, stats. Exit codes:
0 = positive verdict (solution found / certificate valid / formula holds),
1 = negative verdict, 2 = usage error, document error, or unsupported input.
Output documents are JSON on stdout (`errors.dump_json`), warnings go to
stderr, both in UTF-8 with a backslash escape for what it cannot encode.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from typing import Optional, Sequence

from . import ltl, reduction, synthesis
from .arena import (
    Arena,
    Lasso,
    checked_bounds,
    multi_energy_check_unbounded,
    parse_arena,
    serialize_arena,
    validate_lasso,
)
from .errors import CarefulSynthError, UnderflowError, dump_json, load_json, member, natural
from .unfolding import lift, render_ustate, to_dot, unfold, unfolded_to_arena
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
    print(dump_json(doc), end="")
    if pretty_extra:
        print(pretty_extra)


def _parse_bounds_flag(text: str) -> tuple[int, ...]:
    """The integers of `--bounds` as `str` writes them, negative ones too,
    for `checked_bounds` to judge; `-0` is refused, as 0 has one spelling."""
    try:
        return tuple(-natural(v[1:], "a bound") if v[:1] == "-" and v != "-0"
                     else natural(v, "a bound") for v in text.split(","))
    except CarefulSynthError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _arena(args, refusal: Optional[str]):
    """The arena at `args.arena` and its capacities: `--bounds`, with a
    warning when it overrides the document's, else the document's. When
    neither gives them, `refusal` is raised unless it is None."""
    a = parse_arena(_read(args.arena))
    bounds = a.bounds if args.bounds is None else checked_bounds(a.dimensions, args.bounds)
    if a.bounds is not None and a.bounds != bounds:
        _warn(
            f"--bounds {','.join(map(str, bounds))} overrides the arena's "
            f"bounds {','.join(map(str, a.bounds))}"
        )
    if bounds is None and refusal is not None:
        raise CarefulSynthError(refusal)
    return a, bounds


def _load_dpas(pairs: Sequence[str], a: Arena) -> dict[int, ParityAutomaton]:
    dpas: dict[int, ParityAutomaton] = {}
    for pair in pairs:
        player_str, _, path = pair.partition("=")
        if not path:
            raise CarefulSynthError(f"--dpa expects player=file, got {pair!r}")
        player = natural(player_str, "a --dpa player")
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
    a, bounds = _arena(args, "no capacity bounds given (neither --bounds nor the arena "
                       "document); unbounded careful synthesis is undecidable and is refused")
    dpas = _load_dpas(args.dpa, a)
    result = synthesis.solve(a, bounds, dpas=dpas)
    _saturation_caveat(result)
    doc = synthesis.result_to_document(result)
    doc["bounds"] = list(bounds)
    pretty = None
    if args.pretty and result.profile is not None:
        pretty = _pretty_outcome(result.profile)
    _emit(doc, pretty)
    return EXIT_POSITIVE if result.status == synthesis.SolveResult.SOLUTION else EXIT_NEGATIVE


def _cmd_unfold(args) -> int:
    a, bounds = _arena(args, "unfold requires --bounds (or bounds in the arena document)")
    u = unfold(a, bounds)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8", errors="backslashreplace") as f:
                f.write(to_dot(u))
        except OSError as e:
            raise CarefulSynthError(f"cannot write {args.dot}: {e.strerror}") from None
    print(serialize_arena(unfolded_to_arena(u)), end="")
    return EXIT_POSITIVE


def _cmd_check(args) -> int:
    a, bounds = _arena(args, "check requires --bounds (or bounds in the arena document)")
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
    a, bounds = _arena(args, None)
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
    a, bounds = _arena(args, None)
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


# Each option, declared once: its flag, then `add_argument`'s keywords.
_OPTIONS = {
    "--bounds": dict(type=_parse_bounds_flag,
                     help="capacity vector, e.g. 3,3 (overrides the arena document)"),
    "--pretty": dict(action="store_true", help="append a human-readable trace rendering"),
    "--dpa": dict(action="append", default=[], metavar="PLAYER=FILE",
                  help="deterministic parity automaton for a player's objective"),
    "--dot": dict(metavar="FILE", help="also write DOT output"),
}

# One row per subcommand: name, handler, help, then its positional arguments
# and its options, in the order its usage line lists them.
_COMMANDS = [
    ("solve", _cmd_solve, "decide careful synthesis and emit a certificate",
     ["arena", "--bounds", "--pretty", "--dpa"]),
    ("unfold", _cmd_unfold, "emit the reachable bounded unfolding",
     ["arena", "--bounds", "--dot"]),
    ("check", _cmd_check, "verify a strategy-profile certificate",
     ["arena", "profile", "--bounds", "--dpa"]),
    ("mc", _cmd_mc, "model-check a formula on a lasso, with energy report",
     ["arena", "lasso", "formula", "--bounds", "--pretty"]),
    ("gen-reduction", _cmd_gen_reduction, "encode a two-counter automaton as an arena",
     ["automaton"]),
    ("stats", _cmd_stats, "report arena and unfolding sizes",
     ["arena", "--bounds"]),
]


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
    for name, handler, summary, arguments in _COMMANDS:
        p = sub.add_parser(name, help=summary)
        for argument in arguments:  # a positional argument has no keywords
            p.add_argument(argument, **_OPTIONS.get(argument, {}))
        p.set_defaults(func=handler)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    enabled = gc.isenabled()
    gc.disable()  # a command makes little cyclic garbage, but the collector rescans each list
    try:
        return args.func(args)
    except CarefulSynthError as e:
        return _fail(str(e))
    except MemoryError:
        pass  # the frames it holds, and their memory, are freed as this block ends
    finally:
        if enabled:
            gc.enable()
    return _fail("out of memory")


def main() -> None:
    # a stream closed at start is None; `print` to a None file writes to
    # stdout, so a closed stderr becomes a sink for warnings and errors
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8")
    if sys.stdout is None:
        sys.exit(_fail("stdout is closed"))
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(encoding="utf-8", errors="backslashreplace")
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
