"""Assertion helpers shared across test modules."""

from __future__ import annotations

from typing import FrozenSet, List, Set

from repro.core.summary import SideEffectSummary
from repro.core.varsets import EffectKind
from repro.lang.interp import TraceResult
from repro.lang.symbols import ResolvedProgram


def names(symbols) -> Set[str]:
    """Qualified names of a collection of symbols."""
    return {symbol.qualified_name for symbol in symbols}


def mod_names(summary: SideEffectSummary, site_index: int,
              kind: EffectKind = EffectKind.MOD) -> Set[str]:
    """MOD (or USE) of the call site with the given id, as names."""
    site = summary.resolved.call_sites[site_index]
    return names(summary.mod(site, kind))


def gmod_names(summary: SideEffectSummary, proc_name: str,
               kind: EffectKind = EffectKind.MOD) -> Set[str]:
    proc = summary.resolved.proc_named(proc_name)
    return set(summary.universe.to_names(summary.gmod_mask(proc, kind)))


def rmod_names(summary: SideEffectSummary, proc_name: str,
               kind: EffectKind = EffectKind.MOD) -> Set[str]:
    proc = summary.resolved.proc_named(proc_name)
    return {f.name for f in summary.solutions[kind].rmod.formals_of(proc.pid)}


def assert_trace_sound(resolved: ResolvedProgram, trace: TraceResult,
                       summary: SideEffectSummary) -> None:
    """Every observed per-site effect must be covered by the computed
    MOD/USE — the paper's correctness criterion, checked dynamically."""
    for site_id, observed in trace.observed_mod.items():
        site = resolved.call_sites[site_id]
        computed = summary.mod(site)
        extra = observed - computed
        assert not extra, (
            "unsound MOD at %r: observed %s not in computed %s"
            % (site, names(extra), names(computed))
        )
    for site_id, observed in trace.observed_use.items():
        site = resolved.call_sites[site_id]
        computed = summary.use(site)
        extra = observed - computed
        assert not extra, (
            "unsound USE at %r: observed %s not in computed %s"
            % (site, names(extra), names(computed))
        )


def naive_alias_pairs(resolved: ResolvedProgram) -> List[Set[FrozenSet[int]]]:
    """``ALIAS(p)`` per pid by Banning's rules 1–5 applied literally to
    uid-pair sets, every call site and nesting edge swept round-robin
    until a whole sweep adds nothing — no masks, no worklist.  The
    independent oracle for :mod:`repro.core.aliases`."""
    extant = [
        {
            var.uid
            for var in resolved.variables
            if var.is_global or var.proc in proc.lexical_chain()
        }
        for proc in resolved.procs
    ]
    pairs: List[Set[FrozenSet[int]]] = [set() for _ in resolved.procs]
    changed = True
    while changed:
        changed = False
        for site in resolved.call_sites:
            caller = pairs[site.caller.pid]
            callee = site.callee.pid
            refs = [
                (site.callee.formals[binding.position].uid, binding.base.uid)
                for binding in site.bindings
                if binding.by_reference
            ]
            new = set()
            for i, (f_i, a_i) in enumerate(refs):
                for j, (f_j, a_j) in enumerate(refs):
                    # Rules 1 and 2.
                    if i != j and f_i != f_j and (
                        a_i == a_j or frozenset((a_i, a_j)) in caller
                    ):
                        new.add(frozenset((f_i, f_j)))
                # Rule 3.
                if a_i in extant[callee] and a_i != f_i:
                    new.add(frozenset((f_i, a_i)))
                # Rule 4.
                for pair in caller:
                    if a_i in pair:
                        (v,) = pair - {a_i}
                        if v in extant[callee] and v != f_i:
                            new.add(frozenset((f_i, v)))
            if not new <= pairs[callee]:
                pairs[callee] |= new
                changed = True
        # Rule 5.
        for proc in resolved.procs:
            if proc.parent is not None and not pairs[proc.parent.pid] <= pairs[proc.pid]:
                pairs[proc.pid] |= pairs[proc.parent.pid]
                changed = True
    return pairs
