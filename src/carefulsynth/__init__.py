"""Careful cooperative rational synthesis for multi-player turn-based games
with multiple bounded shared resources.

The pipeline: `arena` (data model + lasso semantics) -> `unfolding` (the
arena's product with objective automata, unfolded over bounded resources
with an underflow sink) -> `zerosum` (attractors, Zielonka's parity
algorithm, objective trackers, punishment regions) -> `synthesis`
(equilibrium search and certificate checking). `ltl` provides the objective
language and its Büchi translation; `reduction` generates hardness
instances from two-counter automata; `cli` is the command-line front end.
"""

from .arena import (
    Arena,
    Lasso,
    build_arena,
    multi_energy_check_unbounded,
    parse_arena,
    serialize_arena,
    validate_lasso,
)
from .errors import (
    BudgetExceededError,
    CarefulSynthError,
    CostOverflowError,
    DocumentSemanticError,
    DocumentSyntaxError,
    LtlSyntaxError,
    MalformedProfileError,
    UnderflowError,
    UnknownAtomError,
    UnsupportedObjectiveError,
)
from .ltl import classify_fragment, eval_on_lasso, parse_ltl, to_nba
from .reduction import (
    CounterAutomaton,
    CounterRun,
    build_game,
    parse_counter_automaton,
    recommended_bounds,
    simulate_reachability,
)
from .synthesis import (
    NoWitness,
    SolveResult,
    StrategyProfile,
    check_certificate,
    find_witness_lasso,
    parse_profile,
    profile_to_document,
    result_to_document,
    solve,
    system_component,
    witness_product,
)
from .unfolding import BOT, Product, UnfoldedArena, lift, product, unfold
from .zerosum import (
    ParityAutomaton,
    PunishRegions,
    WinningRegions,
    ZeroSumGame,
    attractor,
    parse_dpa,
    punish_region,
    solve_parity,
)

__version__ = "0.1.0"
