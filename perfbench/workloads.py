"""The four workloads: the instances each one generates from the seed, and
the napx operations that one round runs on them.

Every workload is closed loop with one client: an operation starts only
after the previous one returned. A round is the same list of operations
every time, so each run attempts whole rounds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

from checks import Ref

# (a range, b range) for the generator
DEFAULT = ((0.0, 0.3), (0.5, 1.0))
A0 = ((0.0, 0.0), (0.5, 1.0))       # extinct unless conserved: the guarantee holds
CERTAIN = ((0.0, 0.0), (1.0, 1.0))  # a = 0, b = 1: rounding is exact

# tries before a conditioned draw gives up
_MAX_DRAWS = 20_000


@dataclass(frozen=True)
class Spec:
    """One generated instance and the verbs a round runs on it.

    ``height`` and ``cherries``, when set, keep only Yule trees of that
    height and cherry count. Height fixes the grid depth t, and the cherry
    count fixes how many combines take the general route, so every seed
    asks for the same amount of work; the seed still moves the tree's
    shape, its lengths, probabilities and costs.
    """

    key: str
    topology: str
    n: int
    epsilon: float
    budget: int | None = None  # None: the generator's default
    survival: tuple = DEFAULT
    c_range: tuple = (1, 5)
    height: int | None = None
    cherries: int | None = None
    fmt: str = "json"
    verbs: tuple = ("solve", "eval")


# Two 12-leaf instances carried by the three large workloads, so that the
# exact baselines run and the (1 - epsilon) guarantee is checked in every
# workload.
ANCHORS = (
    Spec("anchor-a0", "yule", 12, 0.3, survival=A0,
         verbs=("solve", "eval", "exact")),
    Spec("anchor-certain", "caterpillar", 12, 0.3, survival=CERTAIN,
         fmt="nwk", verbs=("solve", "eval", "exact", "pg")),
)


def _small_corpus() -> tuple[Spec, ...]:
    specs = []
    for i in range(72):
        survival = (DEFAULT, A0, CERTAIN)[i % 3]
        verbs = ("solve", "eval", "exact") + (("pg",) if survival is CERTAIN else ())
        specs.append(Spec(f"s{i:02d}", ("yule", "caterpillar")[i % 2], 8 + i % 9,
                          0.3, survival=survival,
                          fmt=("json", "nwk")[(i // 2) % 2], verbs=verbs))
    return tuple(specs)


WORKLOADS: dict[str, tuple[Spec, ...]] = {
    "yule-balanced": (
        Spec("y64-e0.3", "yule", 64, 0.3, budget=64, height=12, cherries=22),
        Spec("y64-e0.1", "yule", 64, 0.1, budget=32, height=12, cherries=22),
        Spec("y128-certain", "yule", 128, 0.3, budget=40, survival=CERTAIN,
             height=15, cherries=44, verbs=("solve", "eval", "pg")),
    ) + ANCHORS,
    "caterpillar-deep": (
        Spec("c31-e0.1", "caterpillar", 31, 0.1, budget=31, survival=A0),
        Spec("c48-e0.3", "caterpillar", 48, 0.3, budget=48),
        Spec("c64-e0.3", "caterpillar", 64, 0.3, budget=64),
    ) + ANCHORS,
    "wide-budget": (
        Spec("w32-a", "yule", 32, 0.3, budget=200, c_range=(1, 40),
             height=10, cherries=10),
        Spec("w32-b", "yule", 32, 0.3, budget=200, c_range=(1, 40),
             height=10, cherries=10),
        Spec("w32-c", "yule", 32, 0.3, budget=200, c_range=(1, 40),
             height=10, cherries=10),
    ) + ANCHORS,
    "small-corpus": _small_corpus(),
}

# A taxon whose conserved survival is the smallest positive double. The
# documented outcome is exit 2 with an ``error:`` line; the instance does
# not depend on the seed.
TINY_B_KEY = "tiny-b"
TINY_B_TEXT = json.dumps({
    "format": "nap-instance", "version": 1, "budget": 2, "name": TINY_B_KEY,
    "newick": "((t0:1,t1:1):1,(t2:1,t3:1):1);",
    "taxa": {"t0": {"a": 0.0, "b": 5e-324, "c": 1},
             "t1": {"a": 0.1, "b": 0.9, "c": 1},
             "t2": {"a": 0.1, "b": 0.9, "c": 1},
             "t3": {"a": 0.1, "b": 0.9, "c": 1}}}, sort_keys=True) + "\n"
FAILING_IN = {"small-corpus"}


def _cherries(tree) -> int:
    edges = tree.edges
    return sum(1 for e in edges if len(e.children) == 2
               and all(edges[c].taxon is not None for c in e.children))


def _generate(spec: Spec, gseed: int):
    import napx.generators as gen

    (a_range, b_range) = spec.survival
    return gen.generate(gen.GenSpec(
        n=spec.n, topology=spec.topology, seed=gseed, budget=spec.budget,
        a_range=a_range, b_range=b_range, c_range=spec.c_range))


def _matches(spec: Spec, tree) -> bool:
    return ((spec.height is None or tree.height == spec.height)
            and (spec.cherries is None or _cherries(tree) == spec.cherries))


def find_seeds(workload: str, seed: int) -> dict[str, int]:
    """Each spec's generator seed: the first, counting up from a start
    drawn from ``seed``, whose tree has the spec's height and cherry
    count. The search runs before set-up, so that the number of rejected
    draws, which changes with the seed, is not part of ``setup_s``."""
    gseeds = {}
    for spec in WORKLOADS[workload]:
        start = random.Random(f"{workload}:{seed}:{spec.key}").randrange(1 << 40)
        for gseed in range(start, start + _MAX_DRAWS):
            if _matches(spec, _generate(spec, gseed).tree):
                gseeds[spec.key] = gseed
                break
        else:
            raise RuntimeError(f"no tree of height {spec.height} with {spec.cherries} "
                               f"cherries in {_MAX_DRAWS} draws for {spec.key}")
    return gseeds


def _ref_of(instance) -> Ref:
    tree = instance.tree
    return Ref([(e.length, e.children, e.taxon) for e in tree.edges], tree.root,
               {t: (x.a, x.b, x.c) for t, x in instance.taxa.items()},
               instance.budget)


def setup(workload: str, gseeds: dict[str, int], work: Path) -> str:
    """Write the workload's instance files, generated with the seeds
    ``find_seeds`` chose, the benchmark's own copy of each instance and
    the round's operation list under ``work``. Returns a digest of
    everything written; equal seeds give equal digests."""
    import napx.io

    specs = WORKLOADS[workload]
    for sub in ("inst", "ref", "out"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    ops: list[dict] = []
    written: list[Path] = []
    for spec in specs:
        gseed = gseeds[spec.key]
        instance = _generate(spec, gseed)
        if not _matches(spec, instance.tree):
            raise RuntimeError(f"generator seed {gseed} does not fit {spec.key}")
        path = work / "inst" / f"{spec.key}.nap.{spec.fmt}"
        napx.io.save_instance(instance, path, name=spec.key, seed=gseed)
        ref_path = work / "ref" / f"{spec.key}.json"
        ref_path.write_text(json.dumps(_ref_of(instance).to_json()))
        written += [path, ref_path]
        ops += _ops(spec.key, spec.verbs, spec.epsilon, path, work / "out")
    if workload in FAILING_IN:
        path = work / "inst" / f"{TINY_B_KEY}.nap.json"
        path.write_text(TINY_B_TEXT)
        written.append(path)
        ops.append({"verb": "solve", "key": TINY_B_KEY, "epsilon": 0.1,
                    "argv": ["solve", str(path), "--out",
                             str(work / "out" / f"{TINY_B_KEY}.solve.json")],
                    "doc": None, "expect": 2})
    manifest = work / "ops.json"
    manifest.write_text(json.dumps(ops, indent=1))
    digest = hashlib.sha256()
    for path in written + [manifest]:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _ops(key: str, verbs: tuple, epsilon: float, path: Path, out: Path) -> list[dict]:
    ops = []
    for verb in verbs:
        doc = out / f"{key}.{verb}.json"
        if verb == "solve":
            argv = ["solve", str(path), "--epsilon", repr(epsilon), "--out", str(doc)]
        elif verb == "eval":
            doc = out / f"{key}.solve.json"
            argv = ["eval", str(path), str(doc)]
        else:
            argv = [verb, str(path), "--out", str(doc)]
        ops.append({"verb": verb, "key": key, "epsilon": epsilon, "argv": argv,
                    "doc": str(doc), "expect": 0})
    return ops
