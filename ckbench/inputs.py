"""Benchmark inputs: generated once per checkout, renamed per seed.

Every workload's program text comes from the repository's own
generators (``repro.workloads``) with a *fixed* generator seed, so the
amount of work never depends on the benchmark's ``--seed``.  The seed
instead picks a permutation of the program's identifiers (within
groups of equal length, so even the byte count is unchanged): the
renamed program is alpha-equivalent to the base one, yet its text,
content hashes and cache keys all differ.  Generator seeds alone moved
alias-pair counts by ~2x and end-to-end time by 20-40% at 10k
procedures, which would make every seed a different benchmark.

Generated base inputs are cached under ``ckbench/.cache/inputs``,
keyed by a hash of the generator config and of the generator sources;
the time it took is reported as ``generation_s`` and never lands in an
operation or in ``setup_s``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import re
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")
CACHE_DIR = os.path.join(BENCH_DIR, ".cache")

#: Fixed generator seed of every base input (see the module docstring).
GEN_SEED = 0

#: CK identifiers, as the lexer scans them (``[^\W\d]\w*``).
IDENT = re.compile(r"[^\W\d]\w*")


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads."""

    analyze_procs: int
    batch_files: int
    batch_procs: Tuple[int, ...]  # file sizes, in equal blocks of files
    ide_procs: int
    ide_edits: int  # K toggled edits -> 2K distinct session states


FULL = Sizes(
    analyze_procs=5000,
    batch_files=20,
    batch_procs=(125, 100, 75, 50),
    ide_procs=600,
    ide_edits=8,
)
#: Seconds-long sizes for the benchmark's own tests.
TINY = Sizes(
    analyze_procs=200,
    batch_files=5,
    batch_procs=(20, 40),
    ide_procs=60,
    ide_edits=8,
)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def config_key(config: Dict) -> str:
    return sha256_hex(json.dumps(config, sort_keys=True).encode("utf-8"))[:24]


def tree_digest(*roots: str) -> str:
    """SHA-256 over the relative paths and bytes of every ``.py`` file
    under ``roots`` (a file root counts as itself)."""
    hasher = hashlib.sha256()
    for root in roots:
        if os.path.isfile(root):
            files = [root]
        else:
            files = []
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
                files.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames)
                    if name.endswith(".py")
                )
        for path in files:
            hasher.update(os.path.relpath(path, REPO_ROOT).encode("utf-8") + b"\0")
            with open(path, "rb") as handle:
                hasher.update(handle.read())
            hasher.update(b"\0")
    return hasher.hexdigest()


def analyzer_digest() -> str:
    """Digest of the whole ``repro`` package: the reference cache key."""
    return tree_digest(os.path.join(SRC_DIR, "repro"))


def generator_digest() -> str:
    return tree_digest(
        os.path.join(SRC_DIR, "repro", "workloads"),
        os.path.join(SRC_DIR, "repro", "lang"),
    )


def write_atomic(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())
    with open(tmp, "wb") as handle:
        handle.write(data)
    os.replace(tmp, path)


def read_text(path: str) -> str:
    with open(path) as handle:
        return handle.read()


# -- renaming ---------------------------------------------------------------


class Renamer:
    """A seeded bijection on a program's identifiers.

    Keywords stay; every other identifier maps to one of the same
    length, so the renamed text has the base text's byte count and
    scoping structure.  :meth:`unrename` maps analysis output (qualified
    names such as ``p3.p7::f0``) back to base names for checking.
    """

    def __init__(self, texts: Sequence[str], seed: int):
        from repro.lang.tokens import KEYWORDS

        names = set()
        for text in texts:
            names.update(IDENT.findall(text))
        names -= set(KEYWORDS)
        by_length: Dict[int, List[str]] = {}
        for name in sorted(names):
            by_length.setdefault(len(name), []).append(name)
        rng = random.Random("ckbench-rename:%d" % seed)
        self.forward: Dict[str, str] = {}
        for length in sorted(by_length):
            group = by_length[length]
            shuffled = list(group)
            rng.shuffle(shuffled)
            self.forward.update(zip(group, shuffled))
        self.inverse = {new: old for old, new in self.forward.items()}

    def rename(self, text: str) -> str:
        forward = self.forward
        return IDENT.sub(lambda m: forward.get(m.group(), m.group()), text)

    def name(self, base_name: str) -> str:
        return self.forward.get(base_name, base_name)

    def unrename(self, text: str) -> str:
        inverse = self.inverse
        return IDENT.sub(lambda m: inverse.get(m.group(), m.group()), text)


# -- base inputs ------------------------------------------------------------


def _base_dir(kind: str, config: Dict) -> str:
    keyed = dict(config, kind=kind, generator=generator_digest())
    return os.path.join(CACHE_DIR, "inputs", "%s-%s" % (kind, config_key(keyed)))


def _load_meta(directory: str):
    try:
        with open(os.path.join(directory, "meta.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


def _finish(directory: str, meta: Dict) -> Dict:
    # meta.json is written last: its presence marks a complete input.
    write_atomic(
        os.path.join(directory, "meta.json"),
        json.dumps(meta, sort_keys=True).encode("utf-8"),
    )
    return dict(meta, fresh=True)


def analyze_input(sizes: Sizes) -> Tuple[str, Dict]:
    """``large_scale_config(N)`` as CK source: ``(path, meta)``."""
    config = {"procs": sizes.analyze_procs, "gen_seed": GEN_SEED}
    directory = _base_dir("analyze", config)
    path = os.path.join(directory, "program.ck")
    meta = _load_meta(directory)
    if meta is None:
        from repro.lang.pretty import pretty
        from repro.workloads.generator import generate_program, large_scale_config

        started = time.perf_counter()
        text = pretty(
            generate_program(large_scale_config(sizes.analyze_procs, seed=GEN_SEED))
        )
        write_atomic(path, text.encode("utf-8"))
        meta = _finish(
            directory, {"generation_s": time.perf_counter() - started}
        )
    return path, meta


def batch_input(sizes: Sizes) -> Tuple[List[str], Dict]:
    """A ``write_generated_corpus`` corpus cycling ``DEFAULT_VARIANTS``
    (flat, nested to depth 2-4, recursion-free) with mixed file sizes.

    Sizes come in blocks, largest first, so the pool starts the long
    files first and the pass does not end on one straggler: the pass
    time then depends less on how the files fell to the workers."""
    config = {
        "files": sizes.batch_files,
        "procs": list(sizes.batch_procs),
        "gen_seed": GEN_SEED,
    }
    directory = _base_dir("batch", config)
    corpus = os.path.join(directory, "corpus")
    meta = _load_meta(directory)
    if meta is None:
        from repro.workloads.files import DEFAULT_VARIANTS, write_generated_corpus
        from repro.workloads.generator import GeneratorConfig

        started = time.perf_counter()
        variants = []
        for index in range(sizes.batch_files):
            procs = sizes.batch_procs[
                index * len(sizes.batch_procs) // sizes.batch_files
            ]
            variants.append(
                dict(
                    DEFAULT_VARIANTS[index % len(DEFAULT_VARIANTS)],
                    num_procs=procs,
                    num_globals=max(8, procs // 5),
                )
            )
        write_generated_corpus(
            corpus,
            sizes.batch_files,
            base_seed=GEN_SEED,
            config=GeneratorConfig(),
            variants=variants,
        )
        meta = _finish(
            directory, {"generation_s": time.perf_counter() - started}
        )
    paths = sorted(
        os.path.join(corpus, name)
        for name in os.listdir(corpus)
        if name.endswith(".ck")
    )
    return paths, meta


def renamed_corpus(paths: Sequence[str], seed: int) -> Tuple[str, Renamer, float]:
    """The corpus renamed under ``seed``, written once per seed next to
    the base corpus: ``(directory, renamer, seconds spent writing it
    now)``."""
    texts = [read_text(path) for path in paths]
    renamer = Renamer(texts, seed)
    base = os.path.dirname(os.path.dirname(paths[0]))
    directory = os.path.join(base, "seed-%d" % seed)
    marker = os.path.join(directory, ".complete")
    if os.path.exists(marker):
        return directory, renamer, 0.0
    started = time.perf_counter()
    for path, text in zip(paths, texts):
        write_atomic(
            os.path.join(directory, os.path.basename(path)),
            renamer.rename(text).encode("utf-8"),
        )
    write_atomic(marker, b"")
    return directory, renamer, time.perf_counter() - started


def _called_counts(program) -> Dict[str, int]:
    from repro.lang.nodes import CallStmt

    counts: Dict[str, int] = {}
    bodies = [program.body] + [proc.body for proc in program.procs]
    for body in bodies:
        for stmt in body:
            if isinstance(stmt, CallStmt):
                counts[stmt.callee] = counts.get(stmt.callee, 0) + 1
    return counts


def ide_input(sizes: Sizes) -> Tuple[List[str], Dict]:
    """The session states of the ``ide-session`` workload.

    State 0 is ``large_scale_config(N)``.  ``K`` edits are toggled in
    turn (on during the first K updates, off during the next K), so
    update ``j`` turns state ``j-1`` into state ``j mod 2K`` and every
    update changes exactly one procedure.  Edits ``k % 4 == 3`` add a
    write of a fresh global to the most-called procedure, which changes
    GMOD for all of its transitive callers; the others change a
    constant in one procedure's body and leave every effect set alone.

    Returns the state paths and ``meta`` with, per update, the base
    names of the procedure it edits and the variable its queries ask
    about.
    """
    config = {
        "procs": sizes.ide_procs,
        "edits": sizes.ide_edits,
        "gen_seed": GEN_SEED,
    }
    directory = _base_dir("ide", config)
    count = 2 * sizes.ide_edits
    paths = [os.path.join(directory, "state_%02d.ck" % i) for i in range(count)]
    meta = _load_meta(directory)
    if meta is None:
        from repro.lang.nodes import Assign, IntLit, VarRef
        from repro.lang.pretty import pretty
        from repro.workloads.generator import generate_program, large_scale_config

        started = time.perf_counter()
        program = generate_program(
            large_scale_config(sizes.ide_procs, seed=GEN_SEED)
        )
        from repro.core.persist import summary_to_dict
        from repro.core.pipeline import analyze_side_effects

        counts = _called_counts(program)
        hub = max(program.procs, key=lambda proc: (counts.get(proc.name, 0), proc.name))
        # Globals the hub does not modify yet, even through its callees:
        # writing one changes GMOD(hub) and that of every caller.
        base = summary_to_dict(analyze_side_effects(pretty(program)))
        hub_gmod = set(base["procedures"][hub.name]["gmod"])
        fresh = [decl.name for decl in program.globals if decl.name not in hub_gmod]
        rng = random.Random("ckbench-ide:%d" % GEN_SEED)
        candidates = [
            (proc, index)
            for proc in program.procs
            if proc is not hub
            for index, stmt in enumerate(proc.body)
            if isinstance(stmt, Assign) and isinstance(stmt.value, IntLit)
        ]
        rng.shuffle(candidates)
        edits = []  # (kind, proc decl, payload)
        for k in range(sizes.ide_edits):
            if k % 4 == 3:
                edits.append(("global", hub, fresh[(k // 4) % len(fresh)]))
            else:
                edits.append(("local", *candidates.pop()))
        active = [False] * len(edits)
        updates = []
        for step in range(count):
            if step:
                k = (step - 1) % len(edits)
                active[k] = not active[k]
            state = copy.deepcopy(program)
            procs = {proc.name: proc for proc in state.procs}
            for k, on in enumerate(active):
                if not on:
                    continue
                kind, proc, payload = edits[k]
                if kind == "global":
                    procs[proc.name].body.append(
                        Assign(target=VarRef(payload), value=IntLit(1))
                    )
                else:
                    stmt = procs[proc.name].body[payload]
                    stmt.value = IntLit((stmt.value.value + 1) % 10)
            write_atomic(paths[step], pretty(state).encode("utf-8"))
        for step in range(1, count + 1):
            kind, proc, payload = edits[(step - 1) % len(edits)]
            updates.append(
                {
                    "proc": proc.name,
                    "variable": payload if kind == "global" else edits[3][2],
                    "global_edit": kind == "global",
                }
            )
        meta = _finish(
            directory,
            {
                "generation_s": time.perf_counter() - started,
                "hub": hub.name,
                "updates": updates,
            },
        )
    return paths, meta
