"""Vectorized bit-plane backend for the dense fused phases (DESIGN §13).

The fused solvers' hot loops are mask operations on Python big-ints:
one interpreter dispatch plus one fresh allocation per ``|``/``&`` over
a mask that can be thousands of bits wide.  When the variable universe
is *narrow and interprocedurally shared* — most variables are globals
or formals rather than procedure-private locals — the same solve can be
phrased as whole-array kernels over 2-D NumPy ``uint64`` planes:

* a **plane** is an ``(rows, words)`` array, one row per procedure /
  call site / condensation node, ``words = ceil(width / 64)`` little-
  endian 64-bit limbs per row — exactly the limb layout
  ``int.to_bytes(..., "little")`` produces, so conversion either way is
  a straight memcpy;
* the per-edge ``|=``/``&`` work of a whole topological level of the
  SCC condensation batches into one gather + one grouped OR-reduction
  (``np.bitwise_or.reduceat``) instead of a Python loop;
* the per-site DMOD stitch and the alias-domain intersection become
  single fancy-indexed array expressions over the arena's flat tables.

Counter identity is preserved **exactly**, not approximately: every
tally the big-int fused solvers charge is either structural (RMOD's
``3·Nβ + Eβ``, Figure 2's line 8/17/22 counts, DMOD's
``num_sites``/``total_refs``) or value-dependent in a way this module
reproduces (the reference GMOD solver's per-sweep charges, the alias
factoring's per-hit popcounts).  The two value-dependent cases:

* ``reference`` GMOD: a singleton component is charged its degree
  total for one sweep, plus one more sweep iff its row changed —
  computed vectorized from a changed-rows comparison.  Multi-member
  components run the *exact* big-int Gauss-Seidel loop locally (the
  members' rows are lifted out of the plane, iterated, and written
  back), so sweep counts match the legacy accounting bit for bit.
* ``figure2`` GMOD: the line-17 count depends on DFS edge
  classification, so the backend replays Figure 2's walk structurally
  (``findgmod_fused`` with zero kinds — all mask work vanishes, the
  tallies and the component structure remain) and then computes the
  masks as a vectorized least-fixpoint quotient sweep.  Valid only for
  two-level programs, where Figure 2's output *is* the least fixpoint;
  nested programs shim back to the big-int walk.

The ``multilevel`` and ``per-level`` GMOD methods stay on big-ints
(their per-level lowlink machinery is pointer-chasing, not bulk mask
work); the sparse phases (``IMOD+``'s per-binding scatter) stay on
big-ints by design — the backend seam is per *phase*, not per run.

Backend choice (``backend="auto"``) is per workload *and per phase*:
NumPy pays when the universe is narrow enough that the planes fit a
sane budget and dense enough that big-int rows carry real limb
traffic; it loses on wide-sparse universes (a 120k-variable program
with per-procedure locals makes every plane row ~2 KB of mostly-zero
limbs, while a big-int stops at its highest set bit).  Even where the
gates pass, the mask-bearing phases (GMOD/DMOD/aliases) carry a
mandatory plane→int conversion per result row that CPython's
limb-optimal big-ints never pay, so ``auto`` resolves to the
``"hybrid"`` plan: RMOD — whose packed per-node booleans need *no*
conversion and win 2×+ measured — runs on the plane kernels, the
mask phases stay on big-ints.  An explicit ``backend="numpy"`` runs
every dense phase vectorized (the differential- and profile-visible
full path).  See :func:`auto_backend` / :func:`resolve_backend`.

NumPy itself is an optional extra (``pip install repro[fast]``): when
it is absent every entry point degrades to the big-int path, with a
one-line warning if ``backend="numpy"`` was requested explicitly.
"""

from __future__ import annotations

import os
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bitvec import OpCounter
from repro.core.gmod import findgmod_fused
from repro.core.rmod import RmodResult

try:  # pragma: no cover - exercised via the no-numpy CI leg
    import numpy as _np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    _np = None
    HAVE_NUMPY = False

#: Valid values of the ``backend=`` parameter.
BACKENDS = ("auto", "bigint", "numpy")

#: Resolved execution plans (``summary.backend`` values).  ``"hybrid"``
#: is what ``"auto"`` resolves to when the plane gates pass: RMOD on
#: the vectorized kernels, the mask-bearing phases on big-ints.
BACKEND_PLANS = ("bigint", "numpy", "hybrid")

#: ``auto`` refuses planes wider than this many 64-bit words — beyond
#: it the per-row memory traffic erases the vectorization win and the
#: plane budget explodes (width 65536 bits = 1024 words = 8 KB/row).
AUTO_MAX_WORDS = int(os.environ.get("CK_BITPLANE_MAX_WORDS", "1024"))

#: ``auto`` requires at least this many plane rows (sites + procs) —
#: under it the per-call NumPy dispatch overhead beats the win, and
#: the corpus-sized programs the oracles sweep stay on big-ints.
AUTO_MIN_ROWS = int(os.environ.get("CK_BITPLANE_MIN_ROWS", "2048"))

#: ``auto``'s ceiling on the transient plane footprint in bytes — of
#: the *hybrid* plan ``auto`` actually runs (the RMOD initial-state
#: planes plus the per-node kernel arrays), not the much larger
#: full-``numpy`` footprint :func:`plane_budget_bytes` estimates.
AUTO_BUDGET_BYTES = int(
    os.environ.get("CK_BITPLANE_BUDGET_MB", "256")
) * 1024 * 1024

#: ``auto`` requires this fraction of the universe to be
#: interprocedurally shared (globals + formals).  Procedure-private
#: locals appear in exactly one row each, so a local-dominated universe
#: means wide, mostly-empty plane rows — the big-int representation's
#: home turf.
AUTO_DENSITY_THRESHOLD = float(
    os.environ.get("CK_BITPLANE_DENSITY", "0.5")
)

_warned_unavailable = False


# ---------------------------------------------------------------------------
# Backend choice.
# ---------------------------------------------------------------------------


def shared_density(arena) -> float:
    """Fraction of the variable universe that is interprocedurally
    shared (visible to more than one procedure): globals plus formals.

    The complement — procedure-private locals — contributes exactly one
    plane row's worth of bits per variable, so a low shared fraction
    predicts wide sparse rows where big-ints win.
    """
    universe = arena.universe
    width = universe.size
    if width == 0:
        return 1.0
    private = 0
    for pid in range(len(universe.local_mask)):
        private |= universe.local_mask[pid] & ~universe.formal_mask[pid]
    # main's LOCAL is the global set — globals are shared, not private.
    private &= ~universe.global_mask
    return 1.0 - private.bit_count() / width


def plane_budget_bytes(arena, num_kinds: int) -> int:
    """Estimated transient plane footprint of a full-``numpy`` solve:
    the site planes (DMOD in and out) plus the per-procedure planes
    (IMOD+, GMOD, strip), per kind where a plane is per-kind."""
    words = (arena.width + 63) // 64
    num_sites = len(arena.site_caller)
    num_procs = arena.call_csr.num_nodes
    per_kind_rows = 2 * num_sites + 2 * num_procs
    shared_rows = num_procs  # strip plane, kind-independent
    return (per_kind_rows * num_kinds + shared_rows) * words * 8


def hybrid_budget_bytes(arena, num_kinds: int) -> int:
    """Estimated transient plane footprint of the *hybrid* plan —
    what ``auto`` actually runs.  Hybrid vectorizes only RMOD, whose
    planes are the per-procedure initial-state rows (one plane per
    kind) plus a handful of per-β-node uint64 kernel arrays; the mask
    phases stay on big-ints and allocate nothing."""
    words = (arena.width + 63) // 64
    num_procs = arena.call_csr.num_nodes
    num_nodes = arena.beta_csr.num_nodes
    return num_procs * words * 8 * num_kinds + num_nodes * 8 * 4


def auto_backend(
    arena,
    num_kinds: int,
    *,
    max_words: Optional[int] = None,
    min_rows: Optional[int] = None,
    budget_bytes: Optional[int] = None,
    density_threshold: Optional[float] = None,
) -> str:
    """The measured-density backend choice for one workload.

    The planes win when they are affordable (narrow universe, bounded
    footprint of the hybrid plan ``auto`` runs — see
    :func:`hybrid_budget_bytes` — and enough rows to amortize
    dispatch) *and* the universe is dense in the interprocedural sense
    measured by :func:`shared_density`.  Everything else stays on
    big-ints.
    """
    if not HAVE_NUMPY:
        return "bigint"
    if num_kinds > 64 or num_kinds < 1:
        return "bigint"
    max_words = AUTO_MAX_WORDS if max_words is None else max_words
    min_rows = AUTO_MIN_ROWS if min_rows is None else min_rows
    budget_bytes = AUTO_BUDGET_BYTES if budget_bytes is None else budget_bytes
    density_threshold = (
        AUTO_DENSITY_THRESHOLD if density_threshold is None else density_threshold
    )
    words = (arena.width + 63) // 64
    if words > max_words:
        return "bigint"
    rows = len(arena.site_caller) + arena.call_csr.num_nodes
    if rows < min_rows:
        return "bigint"
    if hybrid_budget_bytes(arena, num_kinds) > budget_bytes:
        return "bigint"
    if shared_density(arena) < density_threshold:
        return "bigint"
    return "numpy"


def resolve_backend(arena, num_kinds: int, backend: str) -> str:
    """Map a requested backend to the execution plan that will run
    (one of :data:`BACKEND_PLANS`).

    ``"numpy"`` runs every dense phase vectorized; ``"auto"`` resolves
    to ``"hybrid"`` when :func:`auto_backend` approves the planes —
    RMOD on the kernels (its K-bit per-node state has the smallest
    lowering cost, and on a warm arena the cached structure makes the
    kernel a clean ~2x win), the mask phases on big-ints — and to
    ``"bigint"`` otherwise.
    """
    global _warned_unavailable
    if backend not in BACKENDS:
        raise ValueError(
            "backend must be one of %s, got %r" % (BACKENDS, backend)
        )
    if backend == "bigint":
        return "bigint"
    if backend == "numpy":
        if not HAVE_NUMPY:
            if not _warned_unavailable:
                _warned_unavailable = True
                warnings.warn(
                    "backend='numpy' requested but NumPy is not installed "
                    "(pip install repro[fast]); falling back to the big-int "
                    "backend",
                    RuntimeWarning,
                    stacklevel=3,
                )
            return "bigint"
        if num_kinds > 64:
            return "bigint"
        return "numpy"
    if auto_backend(arena, num_kinds) == "numpy":
        return "hybrid"
    return "bigint"


# ---------------------------------------------------------------------------
# Plane <-> big-int conversion shims.
# ---------------------------------------------------------------------------


def masks_to_plane(masks: Sequence[int], words: int):
    """Lower a list of big-int masks into a writable ``(rows, words)``
    uint64 plane.  ``int.to_bytes(..., "little")`` emits exactly the
    little-endian limb layout the plane uses, so this is one memcpy
    per row plus one buffer reshape."""
    nbytes = words * 8
    if not masks:
        return _np.zeros((0, words), dtype=_np.uint64)
    buf = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    arr = _np.frombuffer(buf, dtype="<u8").reshape(len(masks), words)
    return arr.astype(_np.uint64, copy=True)


def plane_to_masks(plane) -> List[int]:
    """Lift a plane back into per-row big-int masks.

    One memcpy, then one ``int.from_bytes`` per row over a shared
    memoryview — with each row's slice trimmed to its last nonzero
    word (computed vectorized), because ``from_bytes`` cost is linear
    in slice length and most rows populate only their low words (the
    same skew big-ints exploit natively)."""
    np = _np
    rows, words = plane.shape
    if rows == 0:
        return []
    nbytes = words * 8
    contiguous = np.ascontiguousarray(plane, dtype="<u8")
    nonzero = contiguous != 0
    # Last nonzero word + 1 per row; 0 for all-zero rows.
    top = np.where(
        nonzero.any(axis=1), words - np.argmax(nonzero[:, ::-1], axis=1), 0
    )
    ends = (top * 8).tolist()
    view = memoryview(contiguous.tobytes())
    return [
        int.from_bytes(view[index * nbytes : index * nbytes + end], "little")
        for index, end in enumerate(ends)
    ]


def arena_plane_cache(arena) -> Dict:
    """The arena's cache of lowered read-only plane state (input
    planes, levelized condensation structures).  Everything in it is a
    pure function of the arena, so it is safe to keep across analyses —
    the steady-state serving cost of the NumPy backend is the kernels,
    not the lowering.  A mapped arena image pre-populates the input
    planes with zero-copy views (see :mod:`repro.core.arena`)."""
    cache = getattr(arena, "_plane_cache", None)
    if cache is None:
        cache = {}
        arena._plane_cache = cache
    return cache


class PlaneContext:
    """Per-solve plane state shared by the NumPy phases: the universe
    geometry, the strip plane, and the site-local planes — served from
    the arena's plane cache, which a mapped arena image pre-populates
    with zero-copy views over the mapped buffer."""

    def __init__(self, arena, num_kinds: int):
        if not HAVE_NUMPY:
            raise RuntimeError("PlaneContext requires NumPy")
        self.arena = arena
        self.num_kinds = num_kinds
        self.width = arena.width
        self.words = (arena.width + 63) // 64
        self.cache = arena_plane_cache(arena)

    def strip_plane(self):
        """``strip[p]`` per pid as a plane (read-only use)."""
        plane = self.cache.get("strip")
        if plane is None:
            plane = masks_to_plane(self.arena.strip_masks(), self.words)
            self.cache["strip"] = plane
        return plane

    def site_local_plane(self, kind):
        """``LMOD(s)``/``LUSE(s)`` per site as a plane (read-only use)."""
        key = "site_lmod" if kind.value == "mod" else "site_luse"
        plane = self.cache.get(key)
        if plane is None:
            plane = masks_to_plane(self.arena.site_local(kind), self.words)
            self.cache[key] = plane
        return plane


# ---------------------------------------------------------------------------
# Condensation levelization (shared by the RMOD and GMOD kernels).
# ---------------------------------------------------------------------------


def _component_levels(
    num_components: int, esrc: Sequence[int], edst: Sequence[int]
) -> List[int]:
    """Topological level per component: 0 for sinks, else 1 + the max
    level among cross-component successors.

    Relies on the Tarjan close-order invariant every condensation in
    this package satisfies: an edge's target component closes before
    its source component, so target indices never exceed source
    indices and one ascending scan over component indices sees final
    successor levels.
    """
    out: List[List[int]] = [[] for _ in range(num_components)]
    for src, dst in zip(esrc, edst):
        if dst != src:
            out[src].append(dst)
    level = [0] * num_components
    for src in range(num_components):
        best = 0
        for dst in out[src]:
            if level[dst] + 1 > best:
                best = level[dst] + 1
        level[src] = best
    return level


def _grouped_or(plane, contrib, group_starts, group_rows):
    """OR-reduce ``contrib`` rows by group and fold each group's
    reduction into its ``plane`` row."""
    reduced = _np.bitwise_or.reduceat(contrib, group_starts, axis=0)
    plane[group_rows] |= reduced
    return reduced


# ---------------------------------------------------------------------------
# RMOD — Figure 1 as array kernels over the β condensation.
# ---------------------------------------------------------------------------


class _BetaStructure:
    """Cached structural lowering of the β condensation for the RMOD
    sweep: the formal index arrays and, per topological level, the
    edge groups of the leaves-to-roots pass (pure graph structure — no
    mask content)."""

    def __init__(self, arena):
        np = _np
        csr = arena.beta_csr
        num_nodes = csr.num_nodes
        self.num_nodes = num_nodes
        self.formal_pid = np.asarray(arena.beta_formal_pid, dtype=np.int64)
        self.formal_uid = np.asarray(arena.beta_formal_uid, dtype=np.int64)
        self.word_idx = self.formal_uid >> 6
        self.bit_idx = (self.formal_uid & 63).astype(np.uint64)

        component_of, components = arena.beta_condensation()
        self.num_components = len(components)
        self.comp_of = (
            np.asarray(component_of, dtype=np.int64)
            if num_nodes
            else np.zeros(0, dtype=np.int64)
        )
        # Per level: (unique source comps, group starts, edge targets).
        self.level_groups: List[Tuple] = []
        if csr.num_edges:
            esrc_node = np.repeat(
                np.arange(num_nodes, dtype=np.int64),
                np.diff(np.asarray(csr.heads, dtype=np.int64)),
            )
            edst_node = np.asarray(csr.succ, dtype=np.int64)
            esrc = self.comp_of[esrc_node]
            edst = self.comp_of[edst_node]
            level = np.asarray(
                _component_levels(
                    self.num_components, esrc.tolist(), edst.tolist()
                ),
                dtype=np.int64,
            )
            edge_level = level[esrc]
            for lv in range(1, int(level.max()) + 1):
                sel = np.nonzero(edge_level == lv)[0]
                if not sel.size:
                    continue
                lsrc = esrc[sel]
                order = np.argsort(lsrc, kind="stable")
                lsrc = lsrc[order]
                ldst = edst[sel][order]
                starts = np.nonzero(
                    np.concatenate(([True], lsrc[1:] != lsrc[:-1]))
                )[0]
                self.level_groups.append((lsrc[starts], starts, ldst))


def solve_rmod_numpy(
    arena,
    kinds: Sequence,
    counters: Sequence[OpCounter],
) -> Tuple[List[RmodResult], List[int]]:
    """Figure 1 for every kind as vectorized sweeps (the packed K-bit
    per-node state becomes one uint64 scalar array).

    Step (2) is one scattered OR, step (3) one gather + grouped OR per
    topological level of the β condensation, step (4) one gather.  The
    tallies are Figure 1's structural ``3·Nβ + Eβ`` per kind — the
    identical total :func:`repro.core.rmod.solve_rmod_fused` charges.
    """
    np = _np
    resolved = arena.resolved
    local = arena.local
    csr = arena.beta_csr
    num_nodes = csr.num_nodes
    words = (arena.width + 63) // 64
    cache = arena_plane_cache(arena)

    structure = cache.get("beta_structure")
    if structure is None:
        structure = _BetaStructure(arena)
        cache["beta_structure"] = structure
    formal_pid = structure.formal_pid
    formal_uid = structure.formal_uid

    # IMOD(fp) per node, all kinds packed: bit k of node_bits[n].
    node_bits = np.zeros(num_nodes, dtype=np.uint64)
    if num_nodes:
        for k, kind in enumerate(kinds):
            key = "initial_" + kind.value
            init_plane = cache.get(key)
            if init_plane is None:
                init_plane = masks_to_plane(local.initial(kind), words)
                cache[key] = init_plane
            word = init_plane[formal_pid, structure.word_idx]
            bit = (word >> structure.bit_idx) & np.uint64(1)
            node_bits |= bit << np.uint64(k)

    # Steps (1)+(2): representer value = OR of member values over the
    # shared condensation.
    comp_value = np.zeros(structure.num_components, dtype=np.uint64)
    if num_nodes:
        np.bitwise_or.at(comp_value, structure.comp_of, node_bits)

    # Step (3): leaves-to-roots sweep, one gather + grouped OR per
    # topological level (components at one level share no edges).
    for lsrc_unique, starts, ldst in structure.level_groups:
        np.bitwise_or.at(
            comp_value,
            lsrc_unique,
            np.bitwise_or.reduceat(comp_value[ldst], starts),
        )

    # Step (4): copy representer values back to members.
    if num_nodes:
        node_bits = comp_value[structure.comp_of]

    per_kind_steps = 3 * num_nodes + csr.num_edges
    num_procs = resolved.num_procs
    node_bits_list = [int(bits) for bits in node_bits.tolist()]
    results: List[RmodResult] = []
    for k, kind in enumerate(kinds):
        counters[k].single_bit_steps += per_kind_steps
        kind_bit = (node_bits >> np.uint64(k)) & np.uint64(1)
        node_value = kind_bit.astype(bool).tolist()
        proc_mask = [0] * num_procs
        for node in np.nonzero(kind_bit)[0].tolist():
            proc_mask[int(formal_pid[node])] |= 1 << int(formal_uid[node])
        results.append(
            RmodResult(
                kind=kind,
                graph=arena.binding_graph,
                node_value=node_value,
                proc_mask=proc_mask,
                counter=counters[k],
            )
        )
    return results, node_bits_list


# ---------------------------------------------------------------------------
# GMOD — quotient sweep over the call condensation.
# ---------------------------------------------------------------------------


class _QuotientStructure:
    """Levelized view of one call-graph condensation: per topological
    level, the batched edge groups of its singleton components and the
    member/edge lists of its multi-member components."""

    def __init__(self, arena, component_of, components):
        np = _np
        heads = arena.call_csr.heads
        succ = arena.call_csr.succ
        self.num_nodes = arena.call_csr.num_nodes
        self.components = components
        self.component_of = component_of
        num_components = len(components)

        esrc = []
        edst = []
        for node in range(self.num_nodes):
            src_comp = component_of[node]
            for target in succ[heads[node] : heads[node + 1]]:
                esrc.append(src_comp)
                edst.append(component_of[target])
        self.levels = _component_levels(num_components, esrc, edst)
        self.max_level = max(self.levels, default=0)

        # Per level: singleton batch (contiguous per-node edge groups)
        # and the multi-member component indices.
        self.single_edges: Dict[int, Tuple] = {}
        self.single_nodes: Dict[int, object] = {}
        self.single_degrees: Dict[int, object] = {}
        self.multis: Dict[int, List[int]] = {}
        by_level_nodes: Dict[int, List[int]] = {}
        by_level_dst: Dict[int, List[int]] = {}
        by_level_starts: Dict[int, List[int]] = {}
        by_level_deg: Dict[int, List[int]] = {}
        for comp_index, members in enumerate(components):
            lv = self.levels[comp_index]
            if len(members) > 1:
                self.multis.setdefault(lv, []).append(comp_index)
                continue
            node = members[0]
            lo = heads[node]
            hi = heads[node + 1]
            nodes = by_level_nodes.setdefault(lv, [])
            dst = by_level_dst.setdefault(lv, [])
            starts = by_level_starts.setdefault(lv, [])
            deg = by_level_deg.setdefault(lv, [])
            deg.append(hi - lo)
            if hi > lo:
                starts.append(len(dst))
                dst.extend(succ[lo:hi])
                nodes.append(node)
        for lv, nodes in by_level_nodes.items():
            self.single_nodes[lv] = np.asarray(nodes, dtype=np.int64)
            self.single_edges[lv] = (
                np.asarray(by_level_dst[lv], dtype=np.int64),
                np.asarray(by_level_starts[lv], dtype=np.int64),
            )
        for lv, deg in by_level_deg.items():
            self.single_degrees[lv] = deg


def _sweep_singletons(plane_stack, strip_plane, nodes, dst, starts):
    """One batched equation-(4) application for a level's singleton
    components, across **every** kind plane at once.

    ``plane_stack`` is the (kinds × nodes × words) volume from
    :func:`_stack_planes`: the kind axis leads, so one gather and one
    ``reduceat`` replace the former per-plane Python loop.  Returns
    (new, old) of shape (kinds, len(nodes), words) for change
    detection."""
    contrib = plane_stack[:, dst, :] & strip_plane[dst]
    reduced = _np.bitwise_or.reduceat(contrib, starts, axis=1)
    old = plane_stack[:, nodes, :]
    new = old | reduced
    plane_stack[:, nodes, :] = new
    return new, old


def _stack_planes(rows, words):
    """The kind planes as one contiguous (kinds × nodes × words) volume
    plus its per-kind views.  The views write through, so the scalar
    big-int patches (multi-member components) and the stacked singleton
    sweeps see the same memory.  Lowered in one shot — same single copy
    as the per-plane :func:`masks_to_plane` path, not a stack-of-planes
    recopy."""
    if not rows:
        return None, []
    nbytes = words * 8
    buf = b"".join(
        mask.to_bytes(nbytes, "little") for row in rows for mask in row
    )
    stacked = (
        _np.frombuffer(buf, dtype="<u8")
        .reshape(len(rows), len(rows[0]), words)
        .astype(_np.uint64, copy=True)
    )
    return stacked, [stacked[k] for k in range(len(rows))]


def _solve_reference_component(
    planes, arena, members, strip_ints, counters=None
) -> None:
    """The reference solver's exact big-int Gauss-Seidel loop for one
    multi-member component, lifted out of the planes and written back —
    sweep counts (and therefore charges) match the legacy accounting
    exactly because it *is* the legacy loop.  ``counters=None`` runs
    the same schedule without charging (the figure2 path: its tallies
    come from the structural walk)."""
    np = _np
    heads = arena.call_csr.heads
    succ = arena.call_csr.succ
    num_kinds = len(planes)
    member_set = set(members)
    externals = set()
    degree_total = 0
    for node in members:
        lo = heads[node]
        hi = heads[node + 1]
        degree_total += hi - lo
        for target in succ[lo:hi]:
            if target not in member_set:
                externals.add(target)

    values: List[Dict[int, int]] = []
    for plane in planes:
        vals: Dict[int, int] = {}
        for node in members:
            vals[node] = int.from_bytes(
                np.ascontiguousarray(plane[node], dtype="<u8").tobytes(),
                "little",
            )
        for node in externals:
            vals[node] = int.from_bytes(
                np.ascontiguousarray(plane[node], dtype="<u8").tobytes(),
                "little",
            )
        values.append(vals)

    active = list(range(num_kinds))
    while active:
        still = []
        for k in active:
            vals = values[k]
            changed = False
            for node in members:
                value = vals[node]
                for target in succ[heads[node] : heads[node + 1]]:
                    value |= vals[target] & strip_ints[target]
                if value != vals[node]:
                    vals[node] = value
                    changed = True
            if counters is not None:
                counters[k].bit_vector_steps += degree_total
            if changed:
                still.append(k)
        active = still

    words = planes[0].shape[1]
    for k, plane in enumerate(planes):
        vals = values[k]
        for node in members:
            plane[node] = np.frombuffer(
                vals[node].to_bytes(words * 8, "little"), dtype="<u8"
            )


def solve_gmod_figure2_numpy(
    ctx: PlaneContext,
    imod_plus_rows: Sequence[Sequence[int]],
    num_kinds: int,
    counters: Sequence[OpCounter],
):
    """Figure 2 with vectorized masks: the walk runs once *structurally*
    (zero kinds — edge classification and the line 8/17/22 tallies are
    mask-independent), then the masks are computed as a least-fixpoint
    quotient sweep over the walk's components.

    Two-level programs only (the only programs the figure2 method is
    defined for): there Figure 2's output equals equation (4)'s least
    fixpoint, which is what the sweep computes.  The structural walk
    registers the same single condensation-equivalent pass the big-int
    walk would.
    """
    arena = ctx.arena
    structure = findgmod_fused(arena, [], 0, [])
    total = (
        structure.line8_count + structure.line17_count + structure.line22_count
    )
    for counter in counters:
        counter.bit_vector_steps += total

    quotient = ctx.cache.get("quotient_figure2")
    if quotient is None:
        component_of = structure.component_of
        num_components = max(component_of) + 1 if component_of else 0
        components: List[List[int]] = [[] for _ in range(num_components)]
        for node, comp_index in enumerate(component_of):
            components[comp_index].append(node)
        quotient = _QuotientStructure(arena, component_of, components)
        ctx.cache["quotient_figure2"] = quotient

    strip_plane = ctx.strip_plane()
    strip_ints = arena.strip_masks()
    stacked, planes = _stack_planes(imod_plus_rows, ctx.words)
    for lv in range(quotient.max_level + 1):
        edges = quotient.single_edges.get(lv)
        if edges is not None:
            dst, starts = edges
            nodes = quotient.single_nodes[lv]
            _sweep_singletons(stacked, strip_plane, nodes, dst, starts)
        for comp_index in quotient.multis.get(lv, ()):
            _solve_reference_component(
                planes, arena, quotient.components[comp_index], strip_ints
            )
    return planes


def solve_gmod_reference_numpy(
    ctx: PlaneContext,
    imod_plus_rows: Sequence[Sequence[int]],
    num_kinds: int,
    counters: Sequence[OpCounter],
):
    """The reference equation-(4) fixpoint with vectorized masks and
    the legacy solver's exact value-dependent charges.

    Uses the arena's cached call condensation (same warm/cold
    accounting as the big-int reference solver).  Singleton components
    charge ``degree × (1 + changed)`` per kind — the legacy loop's one
    guaranteed sweep plus the one extra no-change sweep a changed row
    buys.  Multi-member components run the legacy loop verbatim (see
    :func:`_solve_reference_component`).
    """
    np = _np
    arena = ctx.arena
    num_nodes = arena.call_csr.num_nodes
    for counter in counters:
        counter.bit_vector_steps += num_nodes

    component_of, components = arena.call_condensation()
    quotient = ctx.cache.get("quotient_call")
    if quotient is None:
        quotient = _QuotientStructure(arena, component_of, components)
        ctx.cache["quotient_call"] = quotient
    strip_plane = ctx.strip_plane()
    strip_ints = arena.strip_masks()
    stacked, planes = _stack_planes(imod_plus_rows, ctx.words)

    for lv in range(quotient.max_level + 1):
        edges = quotient.single_edges.get(lv)
        if edges is not None:
            dst, starts = edges
            nodes = quotient.single_nodes[lv]
            degrees = (
                np.asarray(np.diff(np.append(starts, len(dst))))
                if len(starts)
                else np.zeros(0, dtype=np.int64)
            )
            new, old = _sweep_singletons(
                stacked, strip_plane, nodes, dst, starts
            )
            # Change rows per (kind, node); the per-kind charge is the
            # legacy loop's exact ``degree × (1 + changed)``.
            changed = np.any(new != old, axis=2)
            degree_sum = int(degrees.sum())
            for k in range(len(planes)):
                counters[k].bit_vector_steps += degree_sum + int(
                    degrees[changed[k]].sum()
                )
        # Zero-degree singletons: the legacy loop runs one sweep that
        # cannot change anything and charges degree_total == 0 — no
        # work to mirror.
        for comp_index in quotient.multis.get(lv, ()):
            _solve_reference_component(
                planes,
                arena,
                quotient.components[comp_index],
                strip_ints,
                counters,
            )
    return planes


def solve_gmod_numpy(
    ctx: PlaneContext,
    method: str,
    imod_plus_rows: Sequence[Sequence[int]],
    num_kinds: int,
    counters: Sequence[OpCounter],
):
    """GMOD under the NumPy backend: vectorized for ``figure2`` (on
    two-level programs) and ``reference``; the multi-level methods (and
    figure2 on nested programs) shim to the big-int fused solvers —
    their cost is per-level pointer work, not bulk mask work.

    Returns ``(gmod_planes, gmod_rows)``: the planes feed the DMOD
    stitch, the big-int rows feed the summary.
    """
    arena = ctx.arena
    if method == "figure2" and arena.resolved.max_nesting_level <= 1:
        planes = solve_gmod_figure2_numpy(
            ctx, imod_plus_rows, num_kinds, counters
        )
        return planes, [plane_to_masks(plane) for plane in planes]
    if method == "reference":
        planes = solve_gmod_reference_numpy(
            ctx, imod_plus_rows, num_kinds, counters
        )
        return planes, [plane_to_masks(plane) for plane in planes]

    # Shim: big-int GMOD, planes lowered from the resulting rows.
    from repro.core.gmod_nested import (
        findgmod_multilevel_fused,
        findgmod_per_level_fused,
        solve_equation4_reference_fused,
    )

    if method == "figure2":
        rows = findgmod_fused(arena, imod_plus_rows, num_kinds, counters).gmod
    elif method == "multilevel":
        rows = findgmod_multilevel_fused(
            arena, imod_plus_rows, num_kinds, counters
        )
    elif method == "per-level":
        rows = findgmod_per_level_fused(
            arena, imod_plus_rows, num_kinds, counters
        )
    elif method == "reference":  # pragma: no cover - handled above
        rows = solve_equation4_reference_fused(
            arena, imod_plus_rows, num_kinds, counters
        )
    else:
        raise ValueError("unknown GMOD method %r" % method)
    return [masks_to_plane(row, ctx.words) for row in rows], [
        list(row) for row in rows
    ]


# ---------------------------------------------------------------------------
# DMOD — the per-site stitch as gathers and one bit scatter.
# ---------------------------------------------------------------------------


def compute_dmod_numpy(
    ctx: PlaneContext,
    gmod_planes,
    kinds: Sequence,
    counters: Sequence[OpCounter],
):
    """Equation (2) for every site and kind as three array expressions:
    the pass-through term is a fancy gather of ``GMOD & strip`` rows by
    callee, the local term one plane OR, and the by-reference formal
    tests one word-gather + shift with a scattered single-bit OR back.

    Charges the structural legacy tallies: ``num_sites`` bit-vector
    steps and ``total_refs`` single-bit steps per kind.
    """
    np = _np
    arena = ctx.arena
    num_sites = len(arena.site_callee)
    strip_plane = ctx.strip_plane()
    total_refs = len(arena.ref_base_uid)

    refs = ctx.cache.get("ref_structure")
    if refs is None:
        site_callee = np.asarray(arena.site_callee, dtype=np.int64)
        refs = {"site_callee": site_callee}
        if total_refs:
            ref_formal_uid = np.asarray(arena.ref_formal_uid, dtype=np.int64)
            ref_base_uid = np.asarray(arena.ref_base_uid, dtype=np.int64)
            ref_site = np.repeat(
                np.arange(num_sites, dtype=np.int64),
                np.diff(np.asarray(arena.site_ref_heads, dtype=np.int64)),
            )
            refs["ref_site"] = ref_site
            refs["ref_callee"] = site_callee[ref_site]
            refs["formal_word"] = ref_formal_uid >> 6
            refs["formal_bit"] = (ref_formal_uid & 63).astype(np.uint64)
            refs["base_word"] = ref_base_uid >> 6
            refs["base_bit"] = (ref_base_uid & 63).astype(np.uint64)
        ctx.cache["ref_structure"] = refs
    site_callee = refs["site_callee"]
    if total_refs:
        ref_site = refs["ref_site"]
        ref_callee = refs["ref_callee"]
        formal_word = refs["formal_word"]
        formal_bit = refs["formal_bit"]
        base_word = refs["base_word"]
        base_bit = refs["base_bit"]

    dmod_planes = []
    for k, kind in enumerate(kinds):
        gmod_plane = gmod_planes[k]
        pass_plane = gmod_plane & strip_plane
        dmod_plane = ctx.site_local_plane(kind) | pass_plane[site_callee]
        if total_refs:
            formal_set = (
                gmod_plane[ref_callee, formal_word] >> formal_bit
            ) & np.uint64(1)
            sel = np.nonzero(formal_set)[0]
            if sel.size:
                np.bitwise_or.at(
                    dmod_plane,
                    (ref_site[sel], base_word[sel]),
                    np.uint64(1) << base_bit[sel],
                )
        dmod_planes.append(dmod_plane)
        counters[k].bit_vector_steps += num_sites
        counters[k].single_bit_steps += total_refs
    return dmod_planes


# ---------------------------------------------------------------------------
# Alias factoring — domain intersection as one plane AND.
# ---------------------------------------------------------------------------


def factor_aliases_numpy(
    ctx: PlaneContext,
    dmod_planes,
    dmod_rows: Sequence[Sequence[int]],
    aliases,
    num_kinds: int,
    counters: Sequence[OpCounter],
) -> List[List[int]]:
    """Section 5 step (2): the hit detection (``DMOD(s) ∩ domain``) and
    the per-hit popcount charge run vectorized over all sites whose
    caller has alias pairs at all; only the (typically rare) sites with
    actual hits fall back to the big-int partner expansion.

    Charges ``hits.bit_count()`` bit-vector steps per non-empty hit
    set, per kind — the legacy tally, computed as a bulk
    ``np.bitwise_count`` sum.
    """
    np = _np
    arena = ctx.arena
    domains = aliases.domain_mask
    partner_mask = aliases.partner_mask
    result = [list(row) for row in dmod_rows]

    nonzero_pids = [pid for pid, domain in enumerate(domains) if domain]
    if not nonzero_pids:
        return result
    compact_of = np.full(len(domains), -1, dtype=np.int64)
    for index, pid in enumerate(nonzero_pids):
        compact_of[pid] = index
    domain_plane = masks_to_plane(
        [domains[pid] for pid in nonzero_pids], ctx.words
    )

    site_caller = np.asarray(arena.site_caller, dtype=np.int64)
    site_compact = compact_of[site_caller]
    sel_sites = np.nonzero(site_compact >= 0)[0]
    if not sel_sites.size:
        return result
    sel_domains = domain_plane[site_compact[sel_sites]]

    for k in range(num_kinds):
        hits_plane = dmod_planes[k][sel_sites] & sel_domains
        counts = np.bitwise_count(hits_plane).sum(axis=1, dtype=np.int64)
        counters[k].bit_vector_steps += int(counts.sum())
        hit_rows = np.nonzero(counts)[0]
        if not hit_rows.size:
            continue
        row = result[k]
        for index in hit_rows.tolist():
            sid = int(sel_sites[index])
            caller_pid = int(site_caller[sid])
            partners = partner_mask[caller_pid]
            hits = int.from_bytes(
                np.ascontiguousarray(
                    hits_plane[index], dtype="<u8"
                ).tobytes(),
                "little",
            )
            expanded = row[sid]
            while hits:
                low = hits & -hits
                expanded |= partners[low.bit_length() - 1]
                hits ^= low
            row[sid] = expanded
    return result
