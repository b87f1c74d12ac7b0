"""Output checks against the paper-faithful per-kind solvers.

The reference for a base input is the legacy pipeline
(``analyze_side_effects(..., fused=False)``: Figure 1, Figure 2 and the
Section 4 multi-level solvers, one kind at a time).  It is solved
outside every timed run and cached by input text and by a digest of
the analyzer sources, so a change to ``src/repro`` re-solves it.

A timed operation passes when the canonical digest of its summary and,
where the operation returns them, its OpCounter tallies equal the
reference's.  The canonical form maps every name back through the
seed's renaming; list orders follow variable uids, which renaming does
not move, except the alias pairs, which the serializer sorts by name
and which are therefore sorted again after mapping.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Callable, Dict, Optional, Sequence

from ckbench.inputs import CACHE_DIR, analyzer_digest, read_text, sha256_hex, write_atomic

class _NameTable(dict):
    """Renamed name -> base name, filled on first sight of each name so
    the bulk of the lookups run as C-level ``map(dict.__getitem__)``."""

    def __init__(self, unrename: Callable[[str], str]):
        super().__init__()
        self.unrename = unrename

    def __missing__(self, name: str) -> str:
        base = self[name] = self.unrename(name)
        return base


def canonical(summary: Dict, unrename: Optional[Callable[[str], str]] = None) -> Dict:
    """``summary`` (the ``summary_to_dict`` shape) in base names."""
    if unrename is None:
        return summary
    get = _NameTable(unrename).__getitem__

    def entry_in_base(entry: Dict) -> Dict:
        return {
            key: list(map(get, value)) if isinstance(value, list)
            else get(value) if key in ("caller", "callee") else value
            for key, value in entry.items()
        }

    return dict(
        summary,
        program=get(summary["program"]),
        procedures={
            get(name): entry_in_base(entry)
            for name, entry in summary["procedures"].items()
        },
        call_sites=[entry_in_base(site) for site in summary["call_sites"]],
        aliases={
            get(proc): sorted(sorted(map(get, pair)) for pair in pairs)
            for proc, pairs in summary["aliases"].items()
        },
    )


def summary_digest(summary: Dict, unrename: Optional[Callable[[str], str]] = None) -> str:
    """Digest of a serialized summary, in base names."""
    text = json.dumps(
        canonical(summary, unrename), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mask_digest(summary) -> str:
    """Digest of a live ``SideEffectSummary``'s sets as uid masks.

    Variable uids follow declaration order, which renaming leaves
    alone, so this digest needs no name mapping -- and no serializing,
    which at 5k procedures costs more than the warm solve itself.  The
    rows are fingerprinted with Python's hash of ints and tuples of
    ints, which (unlike string hashing) is the same in every process.
    """
    parts = []
    for kind in sorted(summary.solutions, key=lambda kind: kind.value):
        solution = summary.solutions[kind]
        for rows in (
            solution.rmod.proc_mask,
            solution.gmod,
            solution.dmod,
            solution.mod,
        ):
            parts.append((kind.value, len(rows), hash(tuple(rows))))
    parts.append(tuple(hash(frozenset(pairs)) for pairs in summary.aliases.pairs))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def kind_tallies(summary) -> Dict[str, list]:
    """Per-kind OpCounter tallies of a live ``SideEffectSummary``."""
    return {
        kind.value: [
            counter.bit_vector_steps,
            counter.single_bit_steps,
            counter.meet_operations,
        ]
        for kind, counter in summary.kind_counters.items()
    }


def total_ops(tallies: Dict[str, list]) -> Dict[str, int]:
    """The ``payload["ops"]`` block the per-kind tallies fold into."""
    return {
        "bit_vector_steps": sum(t[0] for t in tallies.values()),
        "single_bit_steps": sum(t[1] for t in tallies.values()),
        "meet_operations": sum(t[2] for t in tallies.values()),
    }


class References:
    """Reference digests and tallies for a set of base input files."""

    def __init__(self, paths: Sequence[str], live: bool, corrupt: bool = False):
        """``live`` checks operations that return a ``SideEffectSummary``
        (mask digest); otherwise they return serialized payloads (name
        digest -- serializing a 5k-procedure summary takes a minute, so
        each reference holds only the digest its workload needs)."""
        from repro.core.persist import summary_to_dict
        from repro.core.pipeline import analyze_side_effects

        code = analyzer_digest()
        self.solve_s = 0.0  # Reference solving done by this process.
        self.by_path: Dict[str, Dict] = {}
        for path in paths:
            text = read_text(path)
            key = sha256_hex(
                ("%s\0%s\0%s" % (code, live, sha256_hex(text.encode("utf-8")))).encode()
            )
            cached = os.path.join(CACHE_DIR, "refs", key[:32] + ".json")
            try:
                with open(cached) as handle:
                    ref = json.load(handle)
            except (OSError, ValueError):
                started = time.perf_counter()
                summary = analyze_side_effects(text, fused=False)
                ref = {"tallies": kind_tallies(summary)}
                if live:
                    ref["mask_digest"] = mask_digest(summary)
                else:
                    ref["digest"] = summary_digest(summary_to_dict(summary))
                self.solve_s += time.perf_counter() - started
                write_atomic(cached, json.dumps(ref, sort_keys=True).encode("utf-8"))
            if corrupt:
                # Test hook: a wrong reference must fail every check.
                ref = dict(ref, digest="0" * 64, mask_digest="0" * 64)
            self.by_path[path] = ref

    def check_live(self, path: str, summary) -> Optional[str]:
        """Check a live ``SideEffectSummary``; None when it matches."""
        ref = self.by_path[path]
        if mask_digest(summary) != ref["mask_digest"]:
            return "summary digest differs from the legacy solve"
        tallies = kind_tallies(summary)
        if tallies != ref["tallies"]:
            return "OpCounter tallies differ: %s vs %s" % (tallies, ref["tallies"])
        return None

    def check_payload(
        self,
        path: str,
        summary: Dict,
        unrename: Optional[Callable[[str], str]],
        ops: Optional[Dict[str, int]] = None,
    ) -> Optional[str]:
        """Check a serialized summary (and the payload's ``ops`` block
        when given); None when it matches."""
        ref = self.by_path[path]
        if summary_digest(summary, unrename) != ref["digest"]:
            return "summary digest differs from the legacy solve"
        if ops is not None and ops != total_ops(ref["tallies"]):
            return "payload ops differ: %s vs %s" % (ops, total_ops(ref["tallies"]))
        return None
