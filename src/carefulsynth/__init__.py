"""Careful cooperative rational synthesis for multi-player turn-based games
with multiple bounded shared resources.

The pipeline: `arena` (data model, a path's unbounded and bounded
semantics) -> `unfolding` (the arena's product with objective automata,
unfolded over bounded resources with an underflow sink) beside
`certificate` (objective trackers, the certificate document and its
checker) -> `zerosum` (attractors, Zielonka's parity algorithm, punishment
regions) -> `synthesis` (equilibrium search). `ltl` provides the objective
language and its Büchi translation; `reduction` generates hardness
instances from two-counter automata; `cli` is the command-line front end.
Each name is imported from its module (`from carefulsynth.synthesis import
solve`), and importing the package loads none of them.
"""

__version__ = "0.1.0"
