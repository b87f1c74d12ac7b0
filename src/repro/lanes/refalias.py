"""GPG-lite reference-parameter alias lane.

The Banning introduction-rule fixpoint of :mod:`repro.core.aliases` —
may-alias pairs for reference formals — exposed as an effect lane.  It
has no solver of its own: :meth:`RefAliasLaneState.solve_down` seeds
the one alias solver, :func:`repro.core.aliases.solve_aliases`, with
every procedure in *reverse* order of the arena's shared call-graph
condensation (callers first — the condensation lists callees first),
and holds the :class:`~repro.core.aliases.AliasResult` it returns.
The only state is that result's per-procedure partner tables (uid →
mask of may-alias partners over the variable universe) and domain
masks, exactly the two structures the Section 5 factoring step
consumes; pair sets are derived from the masks on demand.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.aliases import AliasResult, solve_aliases
from repro.core.binio import read_varint, write_varint
from repro.lanes.spec import LaneSpec, register_lane


class RefAliasLaneState:
    """The alias lane: the single alias solver's result."""

    direction = "down"

    def __init__(self, arena):
        self.arena = arena
        self.resolved = arena.resolved
        self.result: Optional[AliasResult] = None

    # -- driver hook ---------------------------------------------------------

    def solve_down(self, ctx) -> None:
        """Run the alias solver seeded callers first over the shared
        condensation."""
        order = [pid for members in reversed(ctx.components) for pid in members]
        self.result = solve_aliases(self.resolved, self.arena.universe, order)

    def finalize(self, ctx) -> None:
        pass

    # -- results -------------------------------------------------------------

    def to_payload(self) -> Dict:
        """JSON-safe lane block: per-procedure sorted name pairs (the
        exact shape of the summary payload's ``aliases`` block) plus
        mask-level totals."""
        return {
            "pairs": self.result.name_pairs(),
            "total_pairs": self.result.total_pairs(),
            "domain_procs": sum(1 for mask in self.result.domain_mask if mask),
        }

    def to_blob(self) -> bytes:
        return refalias_tables_to_blob(self.result.partner_mask)


# -- trailer-section codec (shared with core/persist.py) ---------------------


def refalias_tables_to_blob(partner: List[Dict[int, int]]) -> bytes:
    """Binary form of the partner tables: per procedure, a varint entry
    count and (uid varint, partner mask) strips via the shard wire
    codec's signed-mask encoding.  Domain masks are derivable and not
    stored."""
    from repro.shard.wire import write_signed_mask

    out = bytearray()
    write_varint(out, len(partner))
    for table in partner:
        write_varint(out, len(table))
        for uid in sorted(table):
            write_varint(out, uid)
            write_signed_mask(out, table[uid])
    return bytes(out)


def refalias_tables_from_blob(data: bytes) -> List[Dict[int, int]]:
    from repro.shard.wire import read_signed_mask

    pos = 0
    num_procs, pos = read_varint(data, pos)
    partner: List[Dict[int, int]] = []
    for _ in range(num_procs):
        count, pos = read_varint(data, pos)
        table: Dict[int, int] = {}
        for _ in range(count):
            uid, pos = read_varint(data, pos)
            mask, pos = read_signed_mask(data, pos)
            table[uid] = mask
        partner.append(table)
    return partner


REFALIAS_LANE = register_lane(
    LaneSpec(
        name="refalias",
        description="GPG-lite reference-parameter may-alias pairs as "
        "partner/domain masks (Banning rules 1-5)",
        direction="down",
        mask_width=lambda arena: arena.width,
        make_state=RefAliasLaneState,
        section_tag=4,  # == repro.core.persist.SECTION_LANE_REFALIAS
    )
)
