"""Alias-pair analysis and the final ``DMOD`` → ``MOD`` step (Section 5).

The paper's algorithm is *alias-free*: aliasing is "ignored until late
in the computation; the method assumes that simple sets of alias pairs
are available for each procedure".  This module supplies those sets
with the classical Banning-style flow-insensitive computation for
languages whose only aliasing mechanism is reference-parameter passing:

``ALIAS(q)`` (pairs that may hold on entry to ``q``) is the least
fixpoint of the introduction rules over all call sites ``e = (p, q)``
with by-reference bindings ``a_i ↦ f_i``:

1. ``a_i`` and ``a_j`` are the same variable (``i ≠ j``)
   → ``⟨f_i, f_j⟩``;
2. ``⟨a_i, a_j⟩ ∈ ALIAS(p)``            → ``⟨f_i, f_j⟩``;
3. ``a_i = v`` and ``v`` is still *extant* inside ``q``
   (a global, or a variable of one of ``q``'s lexical ancestors —
   extant rather than name-visible, because shadowing hides a name
   without deallocating the instance) → ``⟨f_i, v⟩``;
4. ``⟨a_i, v⟩ ∈ ALIAS(p)`` and ``v`` extant inside ``q``
   → ``⟨f_i, v⟩``;
5. (lexical nesting) ``ALIAS(q) ⊇ ALIAS(parent(q))`` — a pair that may
   hold on entry to the enclosing procedure still holds, for the
   statically-linked instances, when a nested procedure is entered.

There is exactly one solver for these rules, :func:`solve_aliases`, a
worklist over procedures whose only state is what step (2) below reads:
per procedure a *partner table* (uid → mask of its may-alias partners)
and a *domain mask* (the table's key set).  Its three entry points
differ only in the initial tables and the seed order —
:func:`compute_aliases` (from scratch), :func:`compute_aliases_incremental`
(final tables carried forward by reference) and the ``refalias`` lane
(:mod:`repro.lanes.refalias`).  Pair sets are never maintained; the
consumers that want pairs read them off the masks on demand
(:func:`sorted_pairs` for persistence and the dependency index,
:attr:`AliasResult.pairs`, derived once per result, for the Dyck
baseline).

Then, per the paper's step (2)::

    ∀ x ∈ DMOD(s):  if ⟨x, y⟩ ∈ ALIAS(p)  then  add y to MOD(s)

one introduction step, not a transitive closure — exactly as stated.
The cost of both phases is linear in the number of alias pairs, which
the paper notes is unavoidable for any summary computation.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.arena import peek_arena
from repro.core.bitvec import OpCounter
from repro.core.varsets import VariableUniverse
from repro.lang.symbols import ProcSymbol, ResolvedProgram, VarSymbol

Pair = FrozenSet[int]  # A pair of variable uids (frozenset of size 2).


def sorted_pairs(table: Dict[int, int]) -> List[Tuple[int, int]]:
    """Each pair of a partner table once, as ``(a, b)`` with ``a < b``,
    in ascending order."""
    out = []
    for a in sorted(table):
        higher = table[a] >> (a + 1)
        base = a + 1
        while higher:
            low = higher & -higher
            out.append((a, base + low.bit_length() - 1))
            higher ^= low
    return out


class AliasResult:
    """``ALIAS(p)`` for every procedure, as partner and domain masks."""

    def __init__(
        self,
        resolved: ResolvedProgram,
        partner_mask: List[Dict[int, int]],
        domain_mask: List[int],
    ):
        self.resolved = resolved
        #: Per pid: uid -> mask of uids it may be aliased to on entry.
        self.partner_mask = partner_mask
        #: Per pid: mask of uids that have at least one alias partner
        #: (the key set of ``partner_mask[pid]``).  Lets the factoring
        #: step detect "no pair of this set is aliased" with one AND.
        self.domain_mask = domain_mask
        self._pairs: Optional[List[Set[Pair]]] = None

    @property
    def pairs(self) -> List[Set[Pair]]:
        """Per pid, the alias pairs as uid frozensets — derived from the
        masks on first use and kept."""
        if self._pairs is None:
            self._pairs = [
                {frozenset(pair) for pair in sorted_pairs(table)}
                for table in self.partner_mask
            ]
        return self._pairs

    def pairs_of(self, proc: ProcSymbol) -> Set[Pair]:
        return self.pairs[proc.pid]

    def total_pairs(self) -> int:
        return sum(
            mask.bit_count() for table in self.partner_mask for mask in table.values()
        ) // 2

    def may_alias(self, proc: ProcSymbol, a: VarSymbol, b: VarSymbol) -> bool:
        return bool((self.partner_mask[proc.pid].get(a.uid, 0) >> b.uid) & 1)

    def name_pairs(self) -> Dict[str, List[List[str]]]:
        """Per procedure qualified name, its pairs as sorted name pairs
        in sorted order — the serialized form, independent of the order
        the solver grew the tables in."""
        names = [var.qualified_name for var in self.resolved.variables]
        return {
            proc.qualified_name: sorted(
                sorted([names[a], names[b]])
                for a, b in sorted_pairs(self.partner_mask[proc.pid])
            )
            for proc in self.resolved.procs
        }


def _ref_sites(resolved: ResolvedProgram) -> Callable[[int], List]:
    """Per caller pid, its call sites as ``(callee pid, [(formal uid,
    actual uid), ...])`` over the by-reference bindings — decoded on a
    caller's first visit (an incremental drain touches only its region).
    Sites without by-reference bindings feed no rule and are dropped."""
    by_caller: List[List] = [[] for _ in range(resolved.num_procs)]
    for site in resolved.call_sites:
        by_caller[site.caller.pid].append(site)
    decoded: List[Optional[List]] = [None] * resolved.num_procs

    def sites_of(pid: int) -> List:
        sites = decoded[pid]
        if sites is None:
            sites = []
            for site in by_caller[pid]:
                formals = site.callee.formals
                ref = [
                    (formals[b.position].uid, b.base.uid)
                    for b in site.bindings
                    if b.by_reference
                ]
                if ref:
                    sites.append((site.callee.pid, ref))
            decoded[pid] = sites
        return sites

    return sites_of


def solve_aliases(
    resolved: ResolvedProgram,
    universe: VariableUniverse,
    order: Sequence[int],
    partner: Optional[List[Dict[int, int]]] = None,
    domain: Optional[List[int]] = None,
) -> AliasResult:
    """The least fixpoint of rules 1–5, grown from ``partner``/``domain``
    (empty by default) with ``order`` as the initial worklist.

    Pairs flow caller → callee (rules 1–4) and parent → nested (rule 5),
    so ``order`` is best callers first; any order reaches the same
    fixpoint, because the rules only add pairs and every procedure whose
    table grows is requeued.  A caller-supplied table must already be a
    subset of its final value; tables that already hold their final
    value are read but never written, which is what lets
    :func:`compute_aliases_incremental` share them with an older result.
    """
    num_procs = resolved.num_procs
    if partner is None:
        partner = [{} for _ in range(num_procs)]
        domain = [0] * num_procs
    procs = resolved.procs
    sites_of = _ref_sites(resolved)
    extant: Dict[int, int] = {}

    worklist = list(order)
    worklist.reverse()  # Popped from the end: order[0] goes first.
    queued = [False] * num_procs
    for pid in worklist:
        queued[pid] = True
    while worklist:
        caller_pid = worklist.pop()
        queued[caller_pid] = False
        caller_table = partner[caller_pid]
        # Rule 5: nested procedures inherit the enclosing procedure's
        # pairs, one OR per partner entry (the table is symmetric, so
        # the merged one is too).
        if caller_table:
            for nested in procs[caller_pid].nested:
                pid = nested.pid
                table = partner[pid]
                grew = False
                for uid, mask in caller_table.items():
                    have = table.get(uid, 0)
                    if mask & ~have:
                        table[uid] = have | mask
                        grew = True
                if grew:
                    domain[pid] |= domain[caller_pid]
                    if not queued[pid]:
                        queued[pid] = True
                        worklist.append(pid)
        # On a self-recursive site the caller's table is the callee's:
        # reading pairs added earlier in the same visit is sound (each
        # is in the least fixpoint), and the requeue covers the rest.
        for callee_pid, ref in sites_of(caller_pid):
            callee_extant = extant.get(callee_pid)
            if callee_extant is None:
                callee_extant = universe.extant_mask(procs[callee_pid])
                extant[callee_pid] = callee_extant
            table = partner[callee_pid]
            added = False
            for index, (formal, actual) in enumerate(ref):
                aliased = caller_table.get(actual, 0)
                # Rules 3 and 4: the actual, and every variable aliased
                # to it in the caller, if still extant in the callee.
                new = ((1 << actual) | aliased) & callee_extant
                # Rules 1 and 2: a later actual that is the same
                # variable or aliased to this one in the caller.
                for formal_j, actual_j in ref[index + 1:]:
                    if actual_j == actual or (aliased >> actual_j) & 1:
                        new |= 1 << formal_j
                have = table.get(formal, 0)
                new &= ~(have | (1 << formal))
                if not new:
                    continue
                table[formal] = have | new
                domain[callee_pid] |= new | (1 << formal)
                bit = 1 << formal
                while new:
                    low = new & -new
                    other = low.bit_length() - 1
                    table[other] = table.get(other, 0) | bit
                    new ^= low
                added = True
            if added and not queued[callee_pid]:
                queued[callee_pid] = True
                worklist.append(callee_pid)

    return AliasResult(resolved=resolved, partner_mask=partner, domain_mask=domain)


def callers_first(arena, pids: Iterable[int]) -> List[int]:
    """``pids`` callers first when ``arena`` holds a cached call-graph
    condensation (listed callees first), else highest pid first — the
    front end numbers procedures in declaration order, and programs
    mostly declare a callee before its callers.  Never runs a
    condensation of its own: the pinned per-graph counts stay put."""
    cached = arena.cached_call_condensation() if arena is not None else None
    if cached is None:
        return sorted(pids, reverse=True)
    wanted = set(pids)
    return [
        pid
        for members in reversed(cached[1])
        for pid in members
        if pid in wanted
    ]


def compute_aliases(
    resolved: ResolvedProgram,
    universe: VariableUniverse,
    counter: Optional[OpCounter] = None,
) -> AliasResult:
    """``ALIAS(p)`` for every procedure, from scratch: every procedure
    seeds the worklist (rules 1 and 3 fire without any caller pairs).
    The alias fixpoint charges no ``counter`` steps."""
    order = callers_first(peek_arena(resolved), range(resolved.num_procs))
    return solve_aliases(resolved, universe, order)


def compute_aliases_incremental(
    arena,
    carried_tables: List[Optional[Dict[int, int]]],
    carried_domains: Sequence[int],
    seed_pids: Iterable[int],
) -> AliasResult:
    """Warm alias fixpoint over ``arena``'s program with structural
    sharing of final partner tables.

    ``carried_tables[pid]`` is the previous version's final table for a
    procedure outside the forward-affected region (remapped into this
    uid space by the caller when it moved) — shared **by reference**:
    pairs flow caller → callee and parent → nested, so a procedure not
    forward-reachable from any edit has no path from a changed
    contribution, its table already holds the least fixpoint, and the
    solver never writes it.  Region procedures pass ``None`` and are
    re-derived from an empty table (which is what makes shrinking edits
    exact); ``seed_pids`` must cover them and every procedure that
    feeds them.

    The result is value-identical to a from-scratch
    :func:`compute_aliases` — the least fixpoint is unique.
    """
    partner = [{} if table is None else table for table in carried_tables]
    domain = [
        0 if table is None else carried_domains[pid]
        for pid, table in enumerate(carried_tables)
    ]
    return solve_aliases(
        arena.resolved,
        arena.universe,
        callers_first(arena, seed_pids),
        partner,
        domain,
    )


def factor_aliases_into(
    dmod_masks: Sequence[int],
    aliases: AliasResult,
    resolved: ResolvedProgram,
    counter: Optional[OpCounter] = None,
) -> List[int]:
    """Section 5 step (2): ``MOD(s)`` from ``DMOD(s)`` and the caller's
    alias pairs (one expansion step, as the paper specifies)."""
    if counter is None:
        counter = OpCounter()
    domains = aliases.domain_mask
    partner_mask = aliases.partner_mask
    result: List[int] = []
    for site in resolved.call_sites:
        mask = dmod_masks[site.site_id]
        caller_pid = site.caller.pid
        # One AND selects exactly the members of DMOD(s) that have an
        # alias partner; only those are expanded.  The counter charges
        # one bit-vector step per expanded member — the same tally as
        # walking the partner table and testing each key against the
        # mask, which is what this replaces.
        hits = mask & domains[caller_pid]
        expanded = mask
        if hits:
            partners = partner_mask[caller_pid]
            counter.bit_vector_steps += hits.bit_count()
            while hits:
                low = hits & -hits
                expanded |= partners[low.bit_length() - 1]
                hits ^= low
        result.append(expanded)
    return result


def factor_aliases_fused(
    dmod_rows: Sequence[Sequence[int]],
    aliases: AliasResult,
    arena,
    num_kinds: int,
    counters: Sequence[OpCounter],
) -> List[List[int]]:
    """Section 5 step (2) over the per-kind per-site DMOD rows."""
    result: List[List[int]] = [list(row) for row in dmod_rows]
    factor_aliases_at(
        result, range(len(arena.site_caller)), arena.site_caller, aliases,
        counters[:num_kinds],
    )
    return result


def factor_aliases_at(
    rows: List[List[int]],
    sites: Iterable[int],
    site_caller: Sequence[int],
    aliases: AliasResult,
    counters: Sequence[OpCounter],
) -> None:
    """Section 5 step (2) in place: at each of ``sites``, expand every
    kind's row entry (``DMOD(s)`` on entry, ``MOD(s)`` on return) by
    the caller's alias partners.

    The caller decode and domain lookup run once per site and feed
    every kind; expansion happens kind by kind (the partner tables are
    per-uid), so each kind's counter is charged exactly the legacy
    tally: one bit-vector step per expanded member of that kind's set.
    """
    domains = aliases.domain_mask
    partner_mask = aliases.partner_mask
    for sid in sites:
        caller_pid = site_caller[sid]
        domain = domains[caller_pid]
        if not domain:
            continue
        partners = partner_mask[caller_pid]
        for row, counter in zip(rows, counters):
            expanded = row[sid]
            hits = expanded & domain
            if hits:
                counter.bit_vector_steps += hits.bit_count()
                while hits:
                    low = hits & -hits
                    expanded |= partners[low.bit_length() - 1]
                    hits ^= low
                row[sid] = expanded
