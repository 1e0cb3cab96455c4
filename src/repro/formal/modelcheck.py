"""Exhaustive state-space exploration of the abstract MSSP system.

The companion paper mechanized its model in Maude and used breadth-first
search over the rewriting system to validate Theorem 1: from any state
``mssp(S, τ)``, *every* execution commits some maximal safe chain of
tasks and discards the rest, so every reachable terminal state equals
``seq(S, n)`` for some ``n``.

This module is that search, executably: :func:`explore` enumerates every
interleaving of the abstract machine's two rules —

* **commit**: pick any task from the multiset that is complete and safe
  for the current state; superimpose its live-outs;
* **discard**: when no member is safe, drop the remainder;

— and returns the full reachable set, letting tests assert the paper's
claims (soundness of every terminal state, confluence *of state* for
conflict-free task sets, and the existence of the maximal-commit path)
by brute force on small instances rather than by proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.formal.abstract import (
    AbstractTask,
    MState,
    NextFn,
    mssp_commit,
    seq_n,
    task_safe,
)

#: A configuration: (frozen state items, remaining task multiset).
Config = Tuple[Tuple, Tuple[AbstractTask, ...]]


def _freeze(state: MState) -> Tuple:
    return tuple(sorted(state.items(), key=repr))


@dataclass
class ExplorationResult:
    """Everything the breadth-first search saw."""

    #: All reachable (state, remaining-tasks) configurations.
    configurations: Set[Config] = field(default_factory=set)
    #: Terminal states (task multiset exhausted or nothing safe) paired
    #: with the number of instructions committed on the way there.
    terminals: Dict[Tuple, Set[int]] = field(default_factory=dict)

    @property
    def terminal_states(self) -> List[Dict]:
        return [dict(items) for items in self.terminals]

    def committed_totals(self) -> Set[int]:
        """Every 'jump total' some execution achieved."""
        return {n for totals in self.terminals.values() for n in totals}


def explore(
    state: MState,
    tasks: Tuple[AbstractTask, ...],
    next_fn: NextFn,
    max_configs: int = 100_000,
) -> ExplorationResult:
    """Breadth-first search over all commit interleavings."""
    result = ExplorationResult()
    initial: Config = (_freeze(state), tuple(tasks))
    frontier: List[Tuple[Config, int]] = [(initial, 0)]
    result.configurations.add(initial)
    while frontier:
        (frozen, remaining), jumped = frontier.pop()
        current = dict(frozen)
        safe_indices = [
            index
            for index, task in enumerate(remaining)
            if task.complete and task_safe(task, current, next_fn)
        ]
        if not safe_indices:
            # Terminal: either exhausted or the remainder is discarded.
            result.terminals.setdefault(frozen, set()).add(jumped)
            continue
        for index in safe_indices:
            task = remaining[index]
            successor_state = mssp_commit(task, current)
            successor: Config = (
                _freeze(successor_state),
                remaining[:index] + remaining[index + 1:],
            )
            if successor not in result.configurations:
                if len(result.configurations) >= max_configs:
                    raise RuntimeError("state space exceeded max_configs")
                result.configurations.add(successor)
                frontier.append((successor, jumped + task.n))
            else:
                # Revisit for the terminal bookkeeping: different paths
                # to the same configuration may carry different totals.
                frontier.append((successor, jumped + task.n))
        if len(frontier) > max_configs:
            raise RuntimeError("frontier exceeded max_configs")
    return result


def sequential_chain(
    state: MState, lengths: List[int], next_fn: NextFn
) -> Tuple[AbstractTask, ...]:
    """A task multiset forming one contiguous safe chain from ``state``.

    Task *i* starts exactly where task *i−1* ends (live-ins are the full
    intermediate states), so the chain mirrors what a perfect master
    would produce.
    """
    tasks: List[AbstractTask] = []
    current = dict(state)
    for length in lengths:
        task = AbstractTask.fresh(dict(current), n=length).run_to_completion(
            next_fn
        )
        tasks.append(task)
        current = dict(seq_n(current, length, next_fn))
    return tuple(tasks)


def check_theorem_1(
    state: MState,
    tasks: Tuple[AbstractTask, ...],
    next_fn: NextFn,
    max_total: int = 64,
) -> ExplorationResult:
    """Assert the paper's Theorem 1 over the whole reachable space.

    Every terminal state must equal ``seq(state, n)`` for the ``n``
    instructions its path committed.  Raises ``AssertionError`` with a
    counterexample otherwise; returns the exploration for further
    assertions.
    """
    result = explore(state, tasks, next_fn)
    for frozen, totals in result.terminals.items():
        terminal = dict(frozen)
        for jumped in totals:
            expected = dict(seq_n(state, jumped, next_fn))
            assert terminal == expected, (
                f"terminal state after {jumped} committed instructions "
                f"is not seq(S, {jumped}): {terminal} != {expected}"
            )
            assert jumped <= max_total
    return result
