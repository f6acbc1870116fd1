"""The computation engine: drives protocols under a daemon.

A :class:`Simulator` owns a protocol, a network, a daemon and the current
configuration, and produces computation steps ``γ_i ↦ γ_{i+1}``
following the paper's model: the daemon selects a non-empty subset of the
enabled processors; every selected processor atomically evaluates its
guard and executes the corresponding statement *against* ``γ_i``; all
writes land simultaneously in ``γ_{i+1}``.

The simulator also maintains the round count (see
:mod:`repro.runtime.rounds`), cumulative move counts, an optional trace,
and invokes *monitors* — observers such as the PIF-cycle specification
checker — after every step.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterable, Mapping, Protocol as TypingProtocol, Sequence

from repro import telemetry as _telemetry
from repro.errors import ScheduleError, SimulationLimitError, VerificationError
from repro.runtime.daemons import Daemon, SynchronousDaemon
from repro.runtime.network import Network
from repro.runtime.protocol import Action, Protocol
from repro.runtime.rounds import RoundCounter
from repro.runtime.state import Configuration, NodeState
from repro.runtime.trace import StepRecord, Trace

__all__ = ["Monitor", "RunResult", "Simulator"]

#: Default safety valve for :meth:`Simulator.run`.
DEFAULT_MAX_STEPS = 1_000_000


class Monitor(TypingProtocol):
    """Observer interface invoked by the simulator.

    Monitors implement executable specifications (e.g. the PIF cycle
    conditions) or invariant assertions; they may raise
    :class:`~repro.errors.SpecificationViolation` to abort a run.
    """

    def on_start(self, configuration: Configuration) -> None:
        """Called once with the initial configuration."""

    def on_step(
        self,
        before: Configuration,
        record: StepRecord,
        after: Configuration,
    ) -> None:
        """Called after every computation step."""


@dataclass
class RunResult:
    """Outcome of a :meth:`Simulator.run` call."""

    final: Configuration
    steps: int
    rounds: int
    moves: int
    #: True if the run stopped because no action was enabled (terminal
    #: configuration — the computation is maximal and finite).
    terminated: bool
    #: True if the run stopped because the ``until`` predicate held.
    satisfied: bool
    trace: Trace | None = None
    action_counts: dict[str, int] = field(default_factory=dict)

    @property
    def stopped_by_limit(self) -> bool:
        """True if the run hit its step/round budget instead of finishing."""
        return not (self.terminated or self.satisfied)


class Simulator:
    """Drive a protocol on a network under a daemon.

    Parameters
    ----------
    protocol, network:
        The distributed program and the topology it runs on.
    daemon:
        Scheduler; defaults to :class:`SynchronousDaemon`.
    configuration:
        Starting configuration; defaults to the protocol's clean initial
        configuration.
    seed:
        Seed for the daemon's RNG — runs are fully reproducible.
    trace_level:
        ``"none"`` (default), ``"selections"`` or ``"configurations"``.
    monitors:
        Observers receiving every step (see :class:`Monitor`).
    engine:
        ``"incremental"`` (default) re-evaluates guards only on the
        1-hop neighborhood of the nodes a step actually rewrote;
        ``"full"`` re-evaluates every guard at every node after every
        step (the pre-optimization behavior, kept for benchmarking and
        cross-validation); ``"columnar"`` stores the configuration as
        flat per-variable arrays and runs compiled mask kernels (see
        :mod:`repro.columnar`), falling back to a per-node object
        bridge for protocols without a compiled kernel.  The
        ``REPRO_ENGINE`` environment variable overrides the default
        when the parameter is not given.

        Under the columnar engine object configurations are
        materialized lazily: :attr:`configuration` always works, but
        :class:`~repro.runtime.trace.StepRecord.after` is ``None``
        unless something needs the object view (monitors attached,
        ``trace_level="configurations"``, or lockstep validation).
    validate_engine:
        When true, every incremental/columnar update is checked in
        lockstep against a from-scratch recompute on the object path —
        for the columnar engine both the enabled map and the successor
        configuration are compared — and a mismatch raises
        :class:`~repro.errors.VerificationError`.  Defaults to the
        ``REPRO_ENGINE_VALIDATE`` environment variable (any value other
        than empty/``0`` enables it).
    region_parallel, region_threads:
        Columnar engine only (ignored otherwise): when on, each step is
        partitioned into independent dirty regions executed on a thread
        pool (see :mod:`repro.regions`); traces stay bit-identical to
        serial stepping for any thread count.  Default to the
        ``REPRO_REGION_PARALLEL`` / ``REPRO_REGION_THREADS``
        environment variables.
    """

    def __init__(
        self,
        protocol: Protocol,
        network: Network,
        daemon: Daemon | None = None,
        *,
        configuration: Configuration | None = None,
        seed: int = 0,
        trace_level: str = "none",
        monitors: Iterable[Monitor] = (),
        engine: str | None = None,
        validate_engine: bool | None = None,
        region_parallel: bool | None = None,
        region_threads: int | None = None,
    ) -> None:
        if engine is None:
            # An empty REPRO_ENGINE means "unset", like REPRO_ENGINE_VALIDATE.
            engine = os.environ.get("REPRO_ENGINE") or "incremental"
        if engine not in ("incremental", "full", "columnar"):
            raise ScheduleError(
                f"unknown engine {engine!r}; expected 'incremental', "
                f"'full' or 'columnar'"
            )
        if validate_engine is None:
            validate_engine = os.environ.get(
                "REPRO_ENGINE_VALIDATE", ""
            ) not in ("", "0")
        self.engine = engine
        self.validate_engine = validate_engine
        self.protocol = protocol
        self.network = network
        self.daemon = daemon if daemon is not None else SynchronousDaemon()
        self.rng = Random(seed)
        config = (
            configuration
            if configuration is not None
            else protocol.initial_configuration(network)
        )
        self._steps = 0
        self._moves = 0
        self._action_counts: dict[str, int] = {}
        self._monitors = list(monitors)
        #: Crashed processors: excluded from daemon selection and round
        #: accounting, but their memory stays readable by neighbors (the
        #: locally-shared-memory analogue of a fail-stop crash).
        self._crashed: set[int] = set()
        #: Guard-suppressed processors: the shared-memory analogue of
        #: message loss — the processor's guards "fire into the void"
        #: (it cannot act on what it reads) while its memory stays
        #: readable.  Mechanically identical to a crash for selection
        #: and round accounting, but semantically a link fault, so it
        #: is tracked and reported separately.
        self._suppressed: set[int] = set()
        self.trace = Trace(config, level=trace_level)

        self.daemon.reset()
        self._eval_cache: dict = {}
        if engine == "columnar":
            from repro.columnar import ColumnarRuntime

            self._columnar: ColumnarRuntime | None = ColumnarRuntime(
                protocol,
                network,
                config,
                region_parallel=region_parallel,
                region_threads=region_threads,
            )
            # The column block owns the state; ``self.configuration``
            # materializes object views on demand.
            self._configuration: Configuration | None = None
            self._enabled = self._columnar.enabled_map()
        else:
            self._columnar = None
            self._configuration = config
            self._enabled = protocol.enabled_map(
                config, network, cache=self._eval_cache
            )
        self._rounds = RoundCounter(self._enabled)
        for monitor in self._monitors:
            monitor.on_start(config)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def configuration(self) -> Configuration:
        """The current configuration ``γ``.

        Under the columnar engine this materializes an object view of
        the column block — cached until the next write, so repeated
        reads (and a fully no-op step) return the same object.
        """
        if self._columnar is not None:
            return self._columnar.configuration()
        return self._configuration

    @property
    def steps(self) -> int:
        """Computation steps executed so far."""
        return self._steps

    @property
    def rounds(self) -> int:
        """Rounds completed so far."""
        return self._rounds.completed_rounds

    @property
    def moves(self) -> int:
        """Total individual actions executed so far."""
        return self._moves

    @property
    def action_counts(self) -> dict[str, int]:
        """Histogram of executed action names."""
        return dict(self._action_counts)

    def enabled(self) -> dict[int, list[Action]]:
        """The enabled map of the current configuration."""
        return {p: list(actions) for p, actions in self._enabled.items()}

    def enabled_nodes(self) -> frozenset[int]:
        """Processors with at least one enabled action."""
        return frozenset(self._enabled)

    @property
    def crashed(self) -> frozenset[int]:
        """Processors currently crashed (see :meth:`crash`)."""
        return frozenset(self._crashed)

    @property
    def suppressed(self) -> frozenset[int]:
        """Processors currently guard-suppressed (see :meth:`suppress`)."""
        return frozenset(self._suppressed)

    def is_terminal(self) -> bool:
        """True if no action is enabled (the computation is maximal)."""
        return not self._enabled

    def is_stalled(self) -> bool:
        """True if actions are enabled but every enabled processor is crashed.

        A stalled simulator cannot step until some processor recovers —
        campaign runners fast-forward to the next recovery event.
        """
        return bool(self._enabled) and not self._selectable()

    def _selectable(self) -> dict[int, list[Action]]:
        """The enabled map minus crashed/suppressed processors."""
        if not self._crashed and not self._suppressed:
            return self._enabled
        excluded = self._crashed | self._suppressed
        return {
            p: actions
            for p, actions in self._enabled.items()
            if p not in excluded
        }

    def add_monitor(self, monitor: Monitor) -> None:
        """Attach a monitor; it sees the current configuration as start."""
        monitor.on_start(self.configuration)
        self._monitors.append(monitor)

    def reset_configuration(self, configuration: Configuration) -> None:
        """Replace the current configuration in place — a transient fault.

        Models faults striking *during* execution (arbitrary memory
        corruption at an arbitrary time), the scenario self- and
        snap-stabilization are about.  Counters (steps, rounds, moves)
        keep accumulating; the round in progress restarts from the new
        configuration's enabled set (the fault interrupts it), and every
        monitor is re-started so specifications are judged from the
        post-fault state.
        """
        if len(configuration) != self.network.n:
            raise ScheduleError(
                f"configuration has {len(configuration)} states for a "
                f"{self.network.n}-processor network"
            )
        # A fault can rewrite any subset of the memory, so the dirty-set
        # argument does not apply: recompute the enabled map from scratch.
        if self._columnar is not None:
            self._columnar.load(configuration)
            self._enabled = self._columnar.enabled_map()
            if self.validate_engine:
                self._check_against_full(set(self.network.nodes))
        else:
            self._configuration = configuration
            self._eval_cache = {}
            self._enabled = self.protocol.enabled_map(
                configuration, self.network, cache=self._eval_cache
            )
        self._rounds.restart(frozenset(self._enabled))
        for monitor in self._monitors:
            monitor.on_start(configuration)
        self._mark_fault("corrupt", "configuration replaced")

    # ------------------------------------------------------------------
    # Fault-event hooks (chaos campaigns)
    # ------------------------------------------------------------------
    def _mark_fault(self, kind: str, detail: str) -> None:
        """Record a fault event in the trace and (if on) telemetry."""
        self.trace.mark_fault(self._steps, kind, detail)
        if _telemetry.enabled:
            reg = _telemetry.registry
            reg.inc("sim.faults")
            reg.inc(f"sim.faults.{kind}")

    def perturb_configuration(self, updates: Mapping[int, NodeState]) -> set[int]:
        """Overwrite a *subset* of processor memories — a targeted fault.

        The incremental-engine counterpart of :meth:`reset_configuration`:
        only the touched nodes form the dirty set, so the enabled map is
        repaired on ``U ∪ N(U)`` instead of recomputed from scratch.
        Like any transient fault it restarts the round in progress and
        every monitor.  Returns the set of nodes whose state actually
        changed (no-op writes are dropped).
        """
        for p in updates:
            if p not in self.network.nodes:
                raise ScheduleError(f"perturbation targets unknown node {p}")
        current = self.configuration
        effective = {
            p: state
            for p, state in updates.items()
            if state != current[p]
        }
        if not effective:
            return set()
        if self._columnar is not None:
            self._columnar.apply_updates(effective)
            self._enabled = self._columnar.enabled_map()
            if self.validate_engine:
                self._check_against_full(set(effective))
            after = self.configuration
        else:
            after = current.replace(effective)
            self._configuration = after
            self._refresh_enabled(set(effective))
        self._rounds.restart(frozenset(self._enabled))
        for monitor in self._monitors:
            monitor.on_start(after)
        self._mark_fault("corrupt", f"nodes {sorted(effective)}")
        return set(effective)

    def crash(self, nodes: Iterable[int]) -> frozenset[int]:
        """Crash processors: they stop executing but their memory persists.

        Crashed processors are excluded from daemon selection and from
        round accounting's "continuously enabled" bookkeeping (a crash
        plays the disable action); neighbors keep reading their frozen
        state — the locally-shared-memory model has no way to make
        memory disappear.  Monitors are *not* restarted: the
        configuration is unchanged.  Returns the newly crashed set.
        """
        nodes = frozenset(nodes)
        unknown = nodes - set(self.network.nodes)
        if unknown:
            raise ScheduleError(f"cannot crash unknown nodes {sorted(unknown)}")
        newly = nodes - self._crashed
        if not newly:
            return frozenset()
        self._crashed |= newly
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("crash", f"nodes {sorted(newly)}")
        return newly

    def recover(self, nodes: Iterable[int] | None = None) -> frozenset[int]:
        """Recover crashed processors (all of them when ``nodes`` is None).

        A recovered processor resumes from its pre-crash memory — the
        snap guarantees treat that memory as arbitrary, so nothing needs
        resetting — and re-enters fairness accounting with a fresh
        enabled-age of 1.  It joins round bookkeeping from the next
        round.  Returns the set that actually recovered.
        """
        wanted = self._crashed if nodes is None else frozenset(nodes)
        back = frozenset(wanted) & self._crashed
        if not back:
            return frozenset()
        self._crashed -= back
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("recover", f"nodes {sorted(back)}")
        return back

    def suppress(self, nodes: Iterable[int]) -> frozenset[int]:
        """Suppress processors' guards — the shared-memory loss analogue.

        In the message-passing model a lossy link makes a processor act
        on stale neighbor copies; the closest shared-memory rendition
        is a processor whose enabled guards are never granted by the
        daemon (it reads, but its moves are "lost").  Suppressed
        processors keep their memory readable and are excluded from
        selection and round accounting exactly like crashed ones, but
        the fault is marked separately (``suppress``) so tapes and
        telemetry distinguish a loss window from an outage.  Returns
        the newly suppressed set.
        """
        nodes = frozenset(nodes)
        unknown = nodes - set(self.network.nodes)
        if unknown:
            raise ScheduleError(
                f"cannot suppress unknown nodes {sorted(unknown)}"
            )
        newly = nodes - self._suppressed
        if not newly:
            return frozenset()
        self._suppressed |= newly
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("suppress", f"nodes {sorted(newly)}")
        return newly

    def release(self, nodes: Iterable[int] | None = None) -> frozenset[int]:
        """Release guard suppression (all of it when ``nodes`` is None).

        The mirror of :meth:`recover`: released processors re-enter
        fairness accounting with a fresh enabled-age.  Returns the set
        actually released.
        """
        wanted = self._suppressed if nodes is None else frozenset(nodes)
        back = frozenset(wanted) & self._suppressed
        if not back:
            return frozenset()
        self._suppressed -= back
        self._rounds.set_excluded(
            frozenset(self._crashed | self._suppressed),
            frozenset(self._enabled),
        )
        self._mark_fault("release", f"nodes {sorted(back)}")
        return back

    def apply_topology(self, network: Network) -> frozenset[int]:
        """Swap the network under the live run — link churn.

        ``network`` must have the same processor set (links change,
        processors do not).  States whose domains depend on the neighbor
        set are re-domained via the protocol's
        :meth:`~repro.runtime.protocol.Protocol.sanitize_state`; the
        incremental engine is repaired with the changed endpoints (plus
        sanitized nodes) as the dirty set — an edge flip dirties exactly
        its two endpoints.  Monitors are told the new topology and
        restarted.  Returns the dirty set used.
        """
        if network.n != self.network.n:
            raise ScheduleError(
                f"topology change must preserve the processor set "
                f"(have {self.network.n}, got {network.n})"
            )
        touched = self.network.changed_nodes(network)
        old_name = self.network.name
        current = self.configuration
        updates: dict[int, NodeState] = {}
        for p in touched:
            state = current[p]
            fixed = self.protocol.sanitize_state(p, state, network)
            if fixed != state:
                updates[p] = fixed
        dirty = set(touched) | set(updates)
        self.network = network
        if self._columnar is not None:
            # The compiled kernel's CSR index is per-network: recompile.
            self._columnar.rebuild(
                network, current.replace(updates) if updates else current
            )
            self._enabled = self._columnar.enabled_map()
            if self.validate_engine:
                self._check_against_full(dirty)
            if dirty:
                self._rounds.restart(frozenset(self._enabled))
        else:
            if updates:
                self._configuration = current.replace(updates)
            if dirty:
                self._refresh_enabled(dirty)
                self._rounds.restart(frozenset(self._enabled))
        for monitor in self._monitors:
            on_network = getattr(monitor, "on_network", None)
            if on_network is not None:
                on_network(network)
            monitor.on_start(self.configuration)
        self._mark_fault(
            "topology",
            f"{old_name} -> {network.name} (dirty {sorted(dirty)})",
        )
        return frozenset(dirty)

    def swap_daemon(self, daemon: Daemon) -> None:
        """Replace the scheduler mid-run (the adversary changes strategy)."""
        self.daemon = daemon
        daemon.reset()
        self._mark_fault("swap-daemon", daemon.name)

    def _refresh_enabled(self, dirty: set[int]) -> None:
        """Repair the enabled map after ``dirty`` nodes changed state/views."""
        if self.engine == "incremental":
            cache: dict = {}
            self._enabled = self.protocol.enabled_map_incremental(
                self._enabled,
                self._configuration,
                self.network,
                dirty,
                cache=cache,
            )
            self._eval_cache = cache
            if self.validate_engine:
                self._check_against_full(dirty)
        else:
            self._eval_cache = {}
            self._enabled = self.protocol.enabled_map(
                self._configuration, self.network, cache=self._eval_cache
            )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> StepRecord | None:
        """Execute one computation step.

        Returns ``None`` on a terminal configuration, and also when the
        run is *stalled* — actions are enabled but every enabled
        processor is crashed (check :meth:`is_stalled` to distinguish).
        """
        selectable = self._selectable()
        if not selectable:
            return None

        selection = self.daemon.select(
            selectable,
            network=self.network,
            step=self._steps,
            ages=self._rounds.ages,
            rng=self.rng,
        )
        self._validate_selection(selection, selectable)

        if self._columnar is not None:
            # Materialize object views only when something consumes them
            # — monitors, configuration-level traces, or the lockstep
            # validator.  Otherwise the step stays entirely columnar.
            need_objects = (
                bool(self._monitors)
                or self.trace.level == "configurations"
                or self.validate_engine
            )
            before = self._columnar.configuration() if need_objects else None
            dirty = self._columnar.execute_selection(selection)
            if dirty:
                self._enabled = self._columnar.enabled_map()
                if self.validate_engine:
                    self._check_against_full(dirty)
            after = self._columnar.configuration() if need_objects else None
            # Successor validation only applies to kernels that opt in:
            # the object bridge *is* the object path, and kernels with
            # host hooks (which protocols may make impure) must not
            # re-execute them — that would itself perturb application
            # state.
            if self.validate_engine and self._columnar.validates_successor:
                self._check_columnar_successor(before, selection, after, dirty)
        else:
            before = self._configuration
            # Statements execute against ``before`` — the same
            # configuration the current enabled map was evaluated on — so
            # they share its evaluation cache.  No-op writes are excluded
            # from the dirty set by execute_selection.
            after, dirty = self.protocol.execute_selection(
                before, self.network, selection, cache=self._eval_cache
            )

            self._configuration = after
            if not dirty:
                pass  # configuration unchanged: enabled map + cache stay valid
            elif self.engine == "incremental":
                cache: dict = {}
                self._enabled = self.protocol.enabled_map_incremental(
                    self._enabled, after, self.network, dirty, cache=cache
                )
                self._eval_cache = cache
                if self.validate_engine:
                    self._check_against_full(dirty)
            else:
                self._eval_cache = {}
                self._enabled = self.protocol.enabled_map(
                    after, self.network, cache=self._eval_cache
                )
        rounds_completed = self._rounds.observe_step(
            set(selection), frozenset(self._enabled)
        )

        self._steps += 1
        self._moves += len(selection)
        for action in selection.values():
            self._action_counts[action.name] = (
                self._action_counts.get(action.name, 0) + 1
            )

        if _telemetry.enabled:
            reg = _telemetry.registry
            reg.inc("sim.steps")
            reg.inc("sim.moves", len(selection))
            reg.inc("sim.rounds", rounds_completed)
            reg.observe("sim.selection_size", len(selection))
            reg.observe("sim.enabled_set_size", len(self._enabled))
            reg.observe("sim.dirty_set_size", len(dirty))

        record = StepRecord(
            index=self._steps - 1,
            selection={p: a.name for p, a in selection.items()},
            rounds_completed=rounds_completed,
            after=after,
        )
        self.trace.append(record)
        for monitor in self._monitors:
            monitor.on_step(before, record, after)
        return record

    def run(
        self,
        *,
        until: Callable[[Configuration], bool] | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_rounds: int | None = None,
        raise_on_limit: bool = False,
    ) -> RunResult:
        """Run until the predicate holds, the computation terminates, or a budget runs out.

        ``until`` is checked on the current configuration *before* each
        step, so a run whose starting configuration already satisfies the
        predicate returns immediately with ``steps == 0``.
        """
        satisfied = False
        terminated = False
        while True:
            if until is not None and until(self.configuration):
                satisfied = True
                break
            if not self._selectable():
                # Terminal, or stalled with every enabled processor
                # crashed — either way the run cannot advance by itself.
                terminated = not self._enabled
                break
            if self._steps >= max_steps or (
                max_rounds is not None and self.rounds >= max_rounds
            ):
                if raise_on_limit:
                    raise SimulationLimitError(
                        f"budget exhausted after {self._steps} steps / "
                        f"{self.rounds} rounds without reaching the goal"
                    )
                break
            self.step()

        return RunResult(
            final=self.configuration,
            steps=self._steps,
            rounds=self.rounds,
            moves=self._moves,
            terminated=terminated,
            satisfied=satisfied,
            trace=self.trace if self.trace.level != "none" else None,
            action_counts=dict(self._action_counts),
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _validate_selection(
        self,
        selection: dict[int, Action],
        selectable: Mapping[int, Sequence[Action]],
    ) -> None:
        if not selection:
            raise ScheduleError("daemon returned an empty selection")
        for p, action in selection.items():
            enabled_here: Sequence[Action] | None = selectable.get(p)
            if enabled_here is None:
                if p in self._crashed:
                    raise ScheduleError(
                        f"daemon selected crashed processor {p}"
                    )
                if p in self._suppressed:
                    raise ScheduleError(
                        f"daemon selected suppressed processor {p}"
                    )
                raise ScheduleError(
                    f"daemon selected disabled processor {p}"
                )
            if action not in enabled_here:
                raise ScheduleError(
                    f"daemon selected action {action.name!r} not enabled at "
                    f"processor {p}"
                )

    def _check_against_full(self, dirty: set[int]) -> None:
        full = self.protocol.enabled_map(self.configuration, self.network)
        if full != self._enabled or list(full) != list(self._enabled):
            raise VerificationError(
                f"{self.engine} enabled map diverged from full recompute "
                f"at step {self._steps} (dirty={sorted(dirty)}): "
                f"{self.engine}={ {p: [a.name for a in v] for p, v in self._enabled.items()} } "
                f"full={ {p: [a.name for a in v] for p, v in full.items()} }"
            )

    def _check_columnar_successor(
        self,
        before: Configuration,
        selection: dict[int, Action],
        after: Configuration,
        dirty: set[int],
    ) -> None:
        """Lockstep-check one columnar step against the object path.

        The object engine executes the same selection on the same
        pre-step configuration; successor and dirty set must agree
        bit for bit.
        """
        expect_after, expect_dirty = self.protocol.execute_selection(
            before, self.network, selection
        )
        if expect_dirty != dirty or expect_after != after:
            raise VerificationError(
                f"columnar successor diverged from the object path at "
                f"step {self._steps}: dirty={sorted(dirty)} vs "
                f"expected {sorted(expect_dirty)}; differing nodes: "
                f"{[p for p in range(len(after)) if after[p] != expect_after[p]]}"
            )
