"""End-to-end driver: source / resolved program → full side-effect summary.

The pipeline follows the paper's decomposition in order:

1. build the call multi-graph and the binding multi-graph;
2. compute ``LMOD``/``IMOD`` (with the Section 3.3 nesting extension);
3. solve ``RMOD`` on β (Figure 1);
4. form ``IMOD+`` (equation (5));
5. solve the global-variable problem: Figure 2's ``findgmod`` when the
   program is two-level (no nested procedures), the Section 4
   multi-level algorithm otherwise — or any solver the caller names;
6. project ``DMOD`` per call site (equation (2));
7. compute alias pairs and factor them in (Section 5, step (2)).

Both ``MOD`` and ``USE`` are solved by default.

Two execution paths produce bit-identical summaries:

* the **fused** path (default) lowers the program into a shared
  :class:`~repro.core.arena.ProgramArena` and solves all requested
  kinds in one pass per phase, carrying one mask lane per kind
  advanced side by side — one graph traversal and one SCC
  condensation per graph instead of one per kind;
* the **legacy** path (``fused=False``) runs each kind through the
  original per-kind solvers.

Both record per-kind :class:`~repro.core.bitvec.OpCounter` tallies in
``summary.kind_counters`` (the fused solvers charge each kind exactly
the steps the legacy solver would execute — see each solver's
docstring) and fold them into ``summary.counter``, so the totals are
identical no matter which path ran.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Union

from repro.core.aliases import compute_aliases, factor_aliases_fused, factor_aliases_into
from repro.core.arena import ProgramArena, get_arena
from repro.core.bitvec import OpCounter
from repro.core.dmod import compute_dmod, compute_dmod_fused
from repro.core.gmod import findgmod, findgmod_fused
from repro.core.gmod_nested import (
    findgmod_multilevel,
    findgmod_multilevel_fused,
    findgmod_per_level,
    findgmod_per_level_fused,
    solve_equation4_reference,
    solve_equation4_reference_fused,
)
from repro.core.imod_plus import compute_imod_plus, compute_imod_plus_fused
from repro.core.local import LocalAnalysis
from repro.core.rmod import solve_rmod, solve_rmod_fused
from repro.core.summary import EffectSolution, SideEffectSummary
from repro.core.varsets import EffectKind, VariableUniverse
from repro.graphs.binding import build_binding_graph
from repro.graphs.callgraph import build_call_graph
from repro.lang.symbols import ResolvedProgram

#: Selectable global-phase solvers (benchmarks exercise all of them).
GMOD_METHODS = ("auto", "figure2", "multilevel", "per-level", "reference")


def _solve_gmod(method: str, call_graph, imod_plus, universe, kind, counter):
    if method == "figure2":
        result = findgmod(call_graph, imod_plus, universe, kind, counter)
        return result.gmod, "figure2"
    if method == "multilevel":
        result = findgmod_multilevel(call_graph, imod_plus, universe, kind, counter)
        return result.gmod, "multilevel"
    if method == "per-level":
        result = findgmod_per_level(call_graph, imod_plus, universe, kind, counter)
        return result.gmod, "per-level"
    if method == "reference":
        result = solve_equation4_reference(call_graph, imod_plus, universe, kind, counter)
        return result.gmod, "reference"
    raise ValueError("unknown GMOD method %r" % method)


def _solve_gmod_fused(method, arena, imod_plus_packed, num_kinds, counters):
    if method == "figure2":
        result = findgmod_fused(arena, imod_plus_packed, num_kinds, counters)
        return result.gmod, "figure2"
    if method == "multilevel":
        gmod = findgmod_multilevel_fused(arena, imod_plus_packed, num_kinds, counters)
        return gmod, "multilevel"
    if method == "per-level":
        gmod = findgmod_per_level_fused(arena, imod_plus_packed, num_kinds, counters)
        return gmod, "per-level"
    if method == "reference":
        gmod = solve_equation4_reference_fused(
            arena, imod_plus_packed, num_kinds, counters
        )
        return gmod, "reference"
    raise ValueError("unknown GMOD method %r" % method)


def analyze_side_effects(
    program: Union[str, ResolvedProgram],
    kinds: Iterable[EffectKind] = (EffectKind.MOD, EffectKind.USE),
    gmod_method: str = "auto",
    fused: bool = True,
    arena: Optional[ProgramArena] = None,
    lanes: Sequence[str] = (),
    backend: str = "auto",
) -> SideEffectSummary:
    """Run the complete analysis.

    ``program`` may be CK source text or an already-resolved program.
    ``gmod_method`` selects the global-phase solver; ``"auto"`` picks
    Figure 2 for two-level programs and the multi-level algorithm when
    procedures nest deeper.

    ``fused`` (default) solves every requested kind in one shared pass
    per phase over the :class:`~repro.core.arena.ProgramArena`;
    ``fused=False`` runs the original per-kind solvers.  The resulting
    summary — every set, and every counter tally — is identical.  Pass
    ``arena`` to reuse an existing lowering (otherwise the arena cache
    supplies one keyed on the resolved program).

    ``backend`` selects the dense-phase mask representation on the
    fused path: ``"bigint"`` (the Python big-int solvers),
    ``"numpy"`` (every dense phase on the vectorized bit-plane kernels
    of :mod:`repro.core.bitplane`; falls back to big-ints with a
    one-line warning when NumPy is absent), or ``"auto"`` (default —
    per workload by measured mask density and universe width, see
    :func:`repro.core.bitplane.auto_backend`; resolves to the
    ``"hybrid"`` plan — vectorized RMOD, big-int mask phases — when
    the plane gates pass).  Every backend produces the identical
    summary down to the OpCounter tallies; only the wall-clock
    changes.  ``summary.backend`` records the plan that ran.  The
    legacy path (``fused=False``) is big-int only and rejects an
    explicit ``backend="numpy"``.

    ``lanes`` names extra effect lanes (:mod:`repro.lanes`, e.g.
    ``("sections", "refalias")``) advanced through the same arena after
    the MOD/USE phases; finalized lane states land in ``summary.lanes``.
    Lane mode requires the fused path, and resolves ``gmod_method
    "auto"`` to the condensation-consuming ``"reference"`` solver so
    the whole run — GMOD phase and every lane — shares **one** cached
    call-graph condensation (Figure 2's and the multi-level solver's
    embedded Tarjan-adapted walks are their own pass, which would make
    a lane run pay two).  An explicitly named method is honored as
    requested.
    """
    timings: Dict[str, float] = {}
    started = time.perf_counter()

    def _mark(phase: str, since: float) -> float:
        now = time.perf_counter()
        timings[phase] = timings.get(phase, 0.0) + (now - since)
        return now

    tick = started
    if isinstance(program, str):
        from repro.lang.lexer import tokenize_stream
        from repro.lang.parser import parse_token_stream
        from repro.lang.semantic import analyze as semantic_analyze

        stream = tokenize_stream(program)
        tick = _mark("lex", tick)
        ast = parse_token_stream(stream)
        tick = _mark("parse", tick)
        resolved = semantic_analyze(ast)
        tick = _mark("resolve", tick)
        timings["compile"] = timings["lex"] + timings["parse"] + timings["resolve"]
    else:
        resolved = program
        tick = _mark("compile", tick)

    if gmod_method not in GMOD_METHODS:
        raise ValueError(
            "gmod_method must be one of %s, got %r" % (GMOD_METHODS, gmod_method)
        )
    lane_names = list(lanes)
    if lane_names and not fused:
        raise ValueError("effect lanes require the fused pipeline (fused=True)")
    from repro.core import bitplane

    if backend not in bitplane.BACKENDS:
        raise ValueError(
            "backend must be one of %s, got %r" % (bitplane.BACKENDS, backend)
        )
    if backend == "numpy" and not fused:
        raise ValueError(
            "backend='numpy' requires the fused pipeline (fused=True)"
        )

    counter = OpCounter()
    if fused:
        if arena is None or arena.resolved is not resolved:
            arena = get_arena(resolved)
        universe = arena.universe
        call_graph = arena.call_graph
        binding_graph = arena.binding_graph
        local = arena.local
    else:
        universe = VariableUniverse(resolved)
        call_graph = build_call_graph(resolved)
        binding_graph = build_binding_graph(resolved)
        local = LocalAnalysis(resolved, universe)
    tick = _mark("graphs", tick)
    aliases = compute_aliases(resolved, universe, counter)
    tick = _mark("aliases", tick)

    method = gmod_method
    if method == "auto":
        if lane_names:
            # Lane mode: the reference solver consumes the arena's
            # cached condensation, so GMOD and every lane share one
            # Tarjan pass per graph (see the docstring).
            method = "reference"
        else:
            method = "figure2" if resolved.max_nesting_level <= 1 else "multilevel"

    kind_list = list(kinds)
    kind_counters = [OpCounter() for _ in kind_list]
    solutions: Dict[EffectKind, EffectSolution] = {}
    condensations: Optional[Dict[str, int]] = None
    lane_states: Optional[Dict[str, object]] = None

    backend_used = "bigint"
    if fused:
        num_kinds = len(kind_list)
        backend_used = bitplane.resolve_backend(arena, num_kinds, backend)
        before = arena.snapshot_condensations()
        if backend_used in ("numpy", "hybrid"):
            rmod_results, rmod_bits = bitplane.solve_rmod_numpy(
                arena, kind_list, kind_counters
            )
        else:
            rmod_results, rmod_bits = solve_rmod_fused(
                arena, kind_list, kind_counters
            )
        tick = _mark("rmod", tick)
        imod_plus_rows = compute_imod_plus_fused(
            arena, rmod_bits, kind_list, kind_counters
        )
        tick = _mark("imod_plus", tick)
        if backend_used == "numpy":
            plane_ctx = bitplane.PlaneContext(arena, num_kinds)
            gmod_planes, gmod_rows = bitplane.solve_gmod_numpy(
                plane_ctx, method, imod_plus_rows, num_kinds, kind_counters
            )
            used_method = method
            tick = _mark("gmod", tick)
            dmod_planes = bitplane.compute_dmod_numpy(
                plane_ctx, gmod_planes, kind_list, kind_counters
            )
            dmod_rows = [
                bitplane.plane_to_masks(plane) for plane in dmod_planes
            ]
            tick = _mark("dmod", tick)
            mod_rows = bitplane.factor_aliases_numpy(
                plane_ctx,
                dmod_planes,
                dmod_rows,
                aliases,
                num_kinds,
                kind_counters,
            )
            tick = _mark("factor", tick)
        else:
            gmod_rows, used_method = _solve_gmod_fused(
                method, arena, imod_plus_rows, num_kinds, kind_counters
            )
            tick = _mark("gmod", tick)
            dmod_rows = compute_dmod_fused(
                arena, gmod_rows, kind_list, kind_counters
            )
            tick = _mark("dmod", tick)
            mod_rows = factor_aliases_fused(
                dmod_rows, aliases, arena, num_kinds, kind_counters
            )
            tick = _mark("factor", tick)
        for k, kind in enumerate(kind_list):
            solutions[kind] = EffectSolution(
                kind=kind,
                rmod=rmod_results[k],
                imod_plus=imod_plus_rows[k],
                gmod=gmod_rows[k],
                dmod=dmod_rows[k],
                mod=mod_rows[k],
                gmod_method=used_method,
            )
        if lane_names:
            from repro.lanes.driver import solve_lanes

            # Before the condensation snapshot: a lane that triggered
            # an extra pass would show up in ``summary.condensations``,
            # which the lane framework's counter test pins at one pass
            # per graph.
            lane_states = solve_lanes(arena, lane_names, timings)
            tick = time.perf_counter()
        after = arena.snapshot_condensations()
        condensations = {
            name: count - before.get(name, 0)
            for name, count in after.items()
            if count - before.get(name, 0)
        }
    else:
        def _mark_kind(phase: str, kind: EffectKind, since: float) -> float:
            # One delta lands in both the aggregate phase key and a
            # per-kind sub-key ("rmod.mod", "rmod.use", ...), so the
            # phase totals stay comparable across paths while the kind
            # attribution is no longer lost.
            now = time.perf_counter()
            delta = now - since
            timings[phase] = timings.get(phase, 0.0) + delta
            sub = "%s.%s" % (phase, kind.value)
            timings[sub] = timings.get(sub, 0.0) + delta
            return now

        for kind, kind_counter in zip(kind_list, kind_counters):
            rmod = solve_rmod(binding_graph, local, kind, kind_counter)
            tick = _mark_kind("rmod", kind, tick)
            imod_plus = compute_imod_plus(resolved, local, rmod, kind, kind_counter)
            tick = _mark_kind("imod_plus", kind, tick)
            gmod, used_method = _solve_gmod(
                method, call_graph, imod_plus, universe, kind, kind_counter
            )
            tick = _mark_kind("gmod", kind, tick)
            dmod = compute_dmod(resolved, gmod, universe, kind, kind_counter)
            tick = _mark_kind("dmod", kind, tick)
            mod = factor_aliases_into(dmod, aliases, resolved, kind_counter)
            tick = _mark_kind("factor", kind, tick)
            solutions[kind] = EffectSolution(
                kind=kind,
                rmod=rmod,
                imod_plus=imod_plus,
                gmod=gmod,
                dmod=dmod,
                mod=mod,
                gmod_method=used_method,
            )

    for kind_counter in kind_counters:
        counter.merge(kind_counter)
    timings["total"] = time.perf_counter() - started

    return SideEffectSummary(
        resolved=resolved,
        universe=universe,
        call_graph=call_graph,
        binding_graph=binding_graph,
        local=local,
        aliases=aliases,
        solutions=solutions,
        counter=counter,
        timings=timings,
        kind_counters=dict(zip(kind_list, kind_counters)),
        condensations=condensations,
        lanes=lane_states,
        backend=backend_used,
    )


def payload_from_summary(summary: SideEffectSummary) -> Dict:
    """The JSON-safe service payload for one finished analysis.

    Shared by every serving surface — the batch workers, the summary
    cache, and the analysis daemon — so a payload is byte-identical no
    matter which path produced it.  Bundles the serialized summary
    (:func:`repro.core.persist.summary_to_dict`) with the per-phase
    wall times and the :class:`~repro.core.bitvec.OpCounter` tallies
    the corpus statistics aggregator consumes.
    """
    from repro.core.persist import summary_to_dict

    payload = {
        "summary": summary_to_dict(summary),
        "timings": dict(summary.timings),
        "ops": {
            "bit_vector_steps": summary.counter.bit_vector_steps,
            "single_bit_steps": summary.counter.single_bit_steps,
            "meet_operations": summary.counter.meet_operations,
        },
        "num_procs": summary.resolved.num_procs,
        "num_call_sites": summary.resolved.num_call_sites,
    }
    # Only sharded runs carry partition statistics; omitting the key
    # otherwise keeps monolithic payloads byte-identical to before.
    if summary.shard_info is not None:
        payload["shard_info"] = summary.shard_info
    # Same contract for effect lanes: the ``lanes`` block exists exactly
    # when the analysis ran with lanes, so lane-less payloads stay
    # byte-identical to pre-lane writers.
    if summary.lanes:
        from repro.lanes.driver import lane_payloads

        payload["lanes"] = lane_payloads(summary.lanes)
    return payload


def analyze_source_payload(
    source: str,
    gmod_method: str = "auto",
    shards: Optional[int] = None,
    shard_jobs: int = 1,
    shard_strategy: str = "greedy",
    lanes: Sequence[str] = (),
    backend: str = "auto",
) -> Dict:
    """Analyze source text and return a JSON-safe, picklable payload.

    This is the per-unit entry point for the batch service layer: a
    plain module-level function whose argument and result both pickle,
    so :class:`concurrent.futures.ProcessPoolExecutor` workers can call
    it directly.

    ``shards`` routes the solve through the sharded subsystem
    (:func:`repro.shard.solve.analyze_side_effects_sharded`, which
    ignores ``gmod_method``); the ``summary`` field of the payload is
    bit-identical either way — only ``timings``/``shard_info`` differ.

    ``lanes`` adds the named effect lanes (:mod:`repro.lanes`) and their
    ``lanes`` payload block.  Sharded runs solve the lanes on the
    coordinator's arena after the stitch — lanes ride the whole-program
    condensation, which the sharded path shares.

    ``backend`` selects the dense-phase mask representation (see
    :func:`analyze_side_effects`); the payload is byte-identical either
    way.  Sharded runs ignore it — the shard solver is big-int only.
    """
    lane_names = list(lanes)
    if shards is not None:
        from repro.shard.solve import analyze_side_effects_sharded

        summary = analyze_side_effects_sharded(
            source,
            num_shards=shards,
            jobs=shard_jobs,
            strategy=shard_strategy,
        )
        if lane_names:
            from repro.core.arena import get_arena
            from repro.lanes.driver import solve_lanes

            summary.lanes = solve_lanes(
                get_arena(summary.resolved), lane_names, summary.timings
            )
        return payload_from_summary(summary)
    return payload_from_summary(
        analyze_side_effects(
            source, gmod_method=gmod_method, lanes=lane_names, backend=backend
        )
    )


def analyze_file_payload(
    path: str,
    gmod_method: str = "auto",
    shards: Optional[int] = None,
    shard_jobs: int = 1,
    shard_strategy: str = "greedy",
    lanes: Sequence[str] = (),
    backend: str = "auto",
) -> Dict:
    """:func:`analyze_source_payload` over a file path (picklable)."""
    with open(path) as handle:
        source = handle.read()
    return analyze_source_payload(
        source,
        gmod_method=gmod_method,
        shards=shards,
        shard_jobs=shard_jobs,
        shard_strategy=shard_strategy,
        lanes=lanes,
        backend=backend,
    )
