"""The four request workloads.

A request is one user-level operation.  ``run`` is the timed part and calls
the library only through its public functions, each call wrapped in a span;
``check`` runs after the timer stops, verifies the output with ``oracle``
and adds work counts to the phase.  Each workload repeats a fixed cycle of
request kinds whose contents come from the seed, so every run sees the same
mix and the median and p90 fall inside one kind (see README.md).
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import gen_inputs as gi
import oracle
from gen_inputs import fmt, stream

from urysohn import (
    build_petal_cover,
    check_one_point_injectivity,
    distance_set,
    embed_space,
    extend_one_point,
    generate_heirs,
    hausdorff_ballmin,
    hausdorff_supinf,
    heir_distance,
    is_avoidant,
    is_haloed,
    validate_ultrametric,
)
from urysohn import cli as ucli
from urysohn import serialization as ser

from spans import NullTracer

MAX_POINTS = 256  # model points kept for the traced per-call loops


@dataclass
class Request:
    kind: str
    run: Callable  # run(tracer) -> output, timed
    check: Callable  # check(output, phase) -> bool, untimed
    doc: object  # the JSON input(s) the request sends


def as_json(p) -> dict[str, int]:
    """Point JSON read from the public ``coords`` field, without the library."""
    return {fmt(c): v for c, v in p.coords}


def point_key(p: dict) -> tuple:
    return tuple(sorted((Fraction(c), v) for c, v in p.items()))


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.root = root
        self.points: list[dict] = []

    def requests(self, name: str, index: int) -> list[Request]:
        rng = stream(self.seed, f"{self.name}:{name}", index)
        reqs = self.cycle(rng, f"{name}{index}")
        rng.shuffle(reqs)
        return reqs

    def cycle(self, rng, tag: str) -> list[Request]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """A few requests from the warm-up stream.  Their labels never occur
        in the timed streams, so warm-up fills no cache entry that a timed
        request could hit."""
        for req in self.warm_requests(stream(self.seed, f"{self.name}:warm", 0)):
            if not req.check(req.run(NullTracer()), _NullPhase()):
                raise RuntimeError(f"warm-up request {req.kind} failed its check")

    def warm_requests(self, rng) -> list[Request]:
        raise NotImplementedError

    def keep_points(self, points) -> None:
        room = MAX_POINTS - len(self.points)
        if room > 0:
            self.points.extend(list(points)[:room])

    def close(self) -> None:
        pass


class _NullPhase:
    def count(self, name, value):
        pass

    def sample(self, name, value):
        pass


# ------------------------------------------------------------ embed-mixed


def embed_request(tree: gi.Tree) -> Request:
    doc, n = tree.space_doc(), len(tree.labels)

    def run(t):
        space = t.call("serialization.space_from_json", ser.space_from_json, doc)
        report = t.call("spaces.validate_ultrametric.valid", validate_ultrametric, space)
        if not report.ok:
            return None
        images = t.call(f"embedding.embed_space.n{n}", embed_space, space)
        return {
            label: t.call("serialization.point_to_json", ser.point_to_json, p)
            for label, p in images.items()
        }

    def check(out, phase):
        phase.count("spaces.validate_ultrametric.triples", n * comb(n, 2))
        phase.count("embedding.embed_space.points", n)
        return out is not None and oracle.embedding_ok(tree.labels, tree.dist, out)

    return Request(f"embed-n{n}", run, check, doc)


def invalid_request(rng, tree: gi.Tree) -> Request:
    doc, pair = gi.corrupt(rng, tree)
    n = len(tree.labels)

    def run(t):
        space = t.call("serialization.space_from_json", ser.space_from_json, doc)
        return t.call("spaces.validate_ultrametric.invalid", validate_ultrametric, space)

    def check(report, phase):
        phase.count("spaces.validate_ultrametric.triples", n * comb(n, 2))
        phase.count("spaces.validate_ultrametric.violations", len(report.violations))
        found = [(v.kind, v.where) for v in report.violations]
        return not report.ok and oracle.planted_violations_ok(tree.labels, pair, found)

    return Request(f"invalid-n{n}", run, check, doc)


def extend_request(rng, tree: gi.Tree) -> Request:
    doc, theta = gi.extension_doc(rng, tree)

    def run(t):
        problem = t.call(
            "serialization.extension_problem_from_json",
            ser.extension_problem_from_json,
            doc,
        )
        point = t.call("embedding.extend_one_point", extend_one_point, problem)
        return t.call("serialization.point_to_json", ser.point_to_json, point)

    def check(out, phase):
        return oracle.extension_ok(tree.labels, tree.dist, theta, doc["phi"], out)

    return Request(f"extend-n{len(tree.labels)}", run, check, doc)


class EmbedMixed(Workload):
    """Space documents through parse, validate, embed and print."""

    name = "embed-mixed"
    EMBED_SIZES = (16,) * 2 + (24,) * 6 + (32,) * 4 + (48,)
    INVALID_SIZES = (16, 24, 32, 48)
    EXTEND_SIZES = (16, 24, 32)

    def cycle(self, rng, tag):
        reqs = []
        for n in self.EMBED_SIZES:
            tree = gi.Tree(rng, n)
            self.keep_points(tree.image(i) for i in range(n))
            reqs.append(embed_request(tree))
        reqs += [invalid_request(rng, gi.Tree(rng, n)) for n in self.INVALID_SIZES]
        reqs += [extend_request(rng, gi.Tree(rng, n)) for n in self.EXTEND_SIZES]
        return reqs

    def warm_requests(self, rng):
        return [
            embed_request(gi.Tree(rng, 16, prefix="w")),
            invalid_request(rng, gi.Tree(rng, 16, prefix="w")),
            extend_request(rng, gi.Tree(rng, 16, prefix="w")),
        ]


# ------------------------------------------------------ hyperspace-points


def hausdorff_request(e_doc, f_doc, size_class: str) -> Request:
    def run(t):
        e = t.call("serialization.subset_from_json", ser.subset_from_json, e_doc)
        f = t.call("serialization.subset_from_json", ser.subset_from_json, f_doc)
        ballmin = t.call(f"hyperspace.hausdorff_ballmin.{size_class}", hausdorff_ballmin, e, f)
        supinf = t.call(f"hyperspace.hausdorff_supinf.{size_class}", hausdorff_supinf, e, f)
        return len(e) * len(f), ballmin, supinf

    def check(out, phase):
        pairs, ballmin, supinf = out
        candidates = oracle.hausdorff_candidates(e_doc, f_doc)
        phase.count("hyperspace.pairs", pairs)
        phase.count("hyperspace.candidates", len(candidates))
        return ballmin == supinf and ballmin in candidates

    return Request(f"hausdorff-{size_class}", run, check, [e_doc, f_doc])


def heirs_request(rng) -> Request:
    k, depth, branching = rng.randint(3, 4), rng.randint(3, 4), rng.randint(1, 2)
    range_doc = gi.range_doc(rng, k)
    nodes = gi.heir_count(k, depth, branching)
    pairs = [(rng.randrange(nodes), rng.randrange(nodes)) for _ in range(30)]

    def run(t):
        s = t.call("serialization.range_set_from_json", ser.range_set_from_json, range_doc)
        tree = t.call("petals.generate_heirs", generate_heirs, s, depth, branching)
        chains = [n.inheritance for n in tree.nodes]
        return tree, [
            t.call("petals.heir_distance", heir_distance, chains[i], chains[j])
            for i, j in pairs
        ]

    def check(out, phase):
        tree, distances = out
        phase.count("petals.generate_heirs.nodes", len(tree.nodes))
        endpoints = [as_json(n.point) for n in tree.nodes]
        return oracle.heirs_ok(nodes, endpoints, pairs, distances)

    return Request("heirs", run, check, [range_doc, depth, branching, pairs])


def petal_request(doc) -> Request:
    def run(t):
        k = t.call("serialization.subset_from_json", ser.subset_from_json, doc)
        return t.call("petals.build_petal_cover", build_petal_cover, k)

    def check(cover, phase):
        originals = [as_json(o) for o, _ in cover.images]
        images = [as_json(i) for _, i in cover.images]
        same = sorted(map(point_key, originals)) == sorted(map(point_key, doc))
        return cover.ok and same and oracle.petal_cover_ok(originals, images)

    return Request("petal-cover", run, check, doc)


class HyperspacePoints(Workload):
    """Hausdorff pairs, small and large, plus heir trees and petal covers."""

    name = "hyperspace-points"
    SMALL_PAIRS = 12
    LARGE_SIZES = (60, 90, 90, 120)

    def cycle(self, rng, tag):
        reqs = []
        for _ in range(self.SMALL_PAIRS):
            e, f = gi.small_subset(rng, rng.randint(1, 8)), gi.small_subset(rng, rng.randint(1, 8))
            self.keep_points(e + f)
            reqs.append(hausdorff_request(e, f, "small"))
        for m in self.LARGE_SIZES:
            e, f = gi.large_pair(rng, m)
            self.keep_points(e[:8])
            reqs.append(hausdorff_request(e, f, "large"))
        reqs += [heirs_request(rng) for _ in range(2)]
        reqs += [petal_request(gi.small_subset(rng, rng.randint(2, 8))) for _ in range(2)]
        return reqs

    def warm_requests(self, rng):
        return [
            hausdorff_request(gi.small_subset(rng, 6), gi.small_subset(rng, 6), "small"),
            hausdorff_request(*gi.large_pair(rng, 60), "large"),
            heirs_request(rng),
            petal_request(gi.small_subset(rng, 6)),
        ]


# --------------------------------------------------------- search-battery


def search_request(doc, size_class: str, equilateral_size=None) -> Request:
    def run(t):
        space = t.call("serialization.space_from_json", ser.space_from_json, doc)
        rs = t.call("spaces.distance_set", distance_set, space)
        answers = []
        for n in range(1, 9):
            h = t.call(f"spaces.is_haloed.{size_class}", is_haloed, space, rs, n)
            a = t.call(f"spaces.is_avoidant.{size_class}", is_avoidant, space, rs, n)
            j = t.call(
                f"embedding.check_one_point_injectivity.{size_class}",
                check_one_point_injectivity,
                space,
                rs,
                n,
            )
            answers.append((h[0], a[0], j[0]))
        return answers

    def check(answers, phase):
        return len(answers) == 8 and oracle.searches_ok(answers, equilateral_size)

    return Request(f"search-{size_class}", run, check, doc)


class SearchBattery(Workload):
    """Criterion-2 classification of random and of equilateral spaces."""

    name = "search-battery"
    RANDOM_SPACES = 34
    EQUILATERAL_SIZES = (9, 10, 10, 10, 10, 11)

    def cycle(self, rng, tag):
        reqs = []
        for _ in range(self.RANDOM_SPACES):
            tree = gi.Tree(rng, rng.randint(1, 8))
            self.keep_points(tree.image(i) for i in range(len(tree.labels)))
            reqs.append(search_request(tree.space_doc(), "random"))
        for i, m in enumerate(self.EQUILATERAL_SIZES):
            doc = gi.equilateral_doc(rng, m, f"{tag}q{i}")
            reqs.append(search_request(doc, "equilateral", m))
        return reqs

    def warm_requests(self, rng):
        reqs = [
            search_request(gi.Tree(rng, n, prefix="w").space_doc(), "random")
            for n in range(1, 9)
        ]
        reqs.append(search_request(gi.equilateral_doc(rng, 9, "wq"), "equilateral", 9))
        return reqs


# -------------------------------------------------------------------- cli


class Cli(Workload):
    """One ``python -m urysohn.cli`` subprocess per request, run in turn."""

    name = "cli"
    CHECK_SCALE = "0.02"
    TIMEOUT_S = 120

    def __init__(self, seed, root):
        super().__init__(seed, root)
        work = root / ".bench_work"
        work.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=work))
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        self.expected: dict[tuple, tuple[int, str]] = {}
        self.files: dict[str, object] = {}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "urysohn.cli", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=self.root,
            env=self.env,
        )
        try:
            out, _ = proc.communicate(timeout=self.TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        return proc.returncode, out.decode()

    def in_process(self, args):
        key = tuple(args)
        if key not in self.expected:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = ucli.main(list(args))
                except SystemExit as exc:  # argparse rejects as the child would
                    code = exc.code
            self.expected[key] = (code, out.getvalue())
        return self.expected[key]

    def write(self, tag, name, doc) -> str:
        path = self.dir / f"{tag}-{name}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        self.files[str(path)] = doc
        return str(path)

    def request(self, verb, args, code, semantic=None) -> Request:
        args = [verb, *args]

        def run(t):
            return t.call(f"cli.{verb}", self.spawn, args)

        def check(out, phase):
            got_code, stdout = out
            want_code, want = self.in_process(args)
            if got_code != code or want_code != code:
                return False
            if verb == "check":
                for k, seconds in _criterion_seconds(stdout).items():
                    phase.sample(f"verify.criterion_{k}.seconds", seconds)
                if _without_seconds(stdout) != _without_seconds(want):
                    return False
            elif stdout != want:
                return False
            return semantic is None or semantic(json.loads(stdout))

        return Request(f"cli-{verb}", run, check, [self.files.get(a, a) for a in args])

    def cycle(self, rng, tag):
        def w(name, doc):
            return self.write(tag, name, doc)

        t16, t24 = gi.Tree(rng, 16), gi.Tree(rng, 24)
        self.keep_points(t24.image(i) for i in range(24))
        bad, pair = gi.corrupt(rng, gi.Tree(rng, 24))
        bad_file = w("bad", bad)
        ext, theta = gi.extension_doc(rng, t16)
        piece = json.dumps(gi.range_doc(rng, 3))

        def planted(d):
            found = [(v["kind"], v["where"]) for v in d["violations"]]
            return oracle.planted_violations_ok(bad["labels"], pair, found)

        def extended(d):
            return oracle.extension_ok(t16.labels, t16.dist, theta, ext["phi"], d)

        reqs = [
            self.request("validate", [w("s16", t16.space_doc())], 0),
            self.request("validate", [w("s24", t24.space_doc())], 0),
            self.request("validate", [bad_file], 1, planted),
            self.request("embed", [bad_file], 3),
            self.request("embed", [w("broken", '{"labels": [')], 2),
            self.request("extend", [w("ext", ext)], 0, extended),
            self.request(
                "petal-distance",
                [w("pt", gi.point(rng, gi.TWELFTHS)), "--range", piece],
                0,
            ),
        ]
        for i in range(2):
            tree = gi.Tree(rng, 24)
            reqs.append(
                self.request(
                    "embed",
                    [w(f"e{i}", tree.space_doc())],
                    0,
                    lambda d, t=tree: oracle.embedding_ok(t.labels, t.dist, d),
                )
            )
        pairs = [(gi.small_subset(rng, 8), gi.small_subset(rng, 8)), gi.large_pair(rng, 60)]
        for i, (e, f) in enumerate(pairs):
            reqs.append(
                self.request(
                    "hausdorff",
                    [w(f"l{i}", e), w(f"r{i}", f)],
                    0,
                    lambda d, e=e, f=f: _hausdorff_ok(d, e, f),
                )
            )
        for depth in ("3", "4"):
            rs = json.dumps(gi.range_doc(rng, 4))
            args = ["--range", rs, "--depth", depth, "--branching", "2"]
            reqs.append(self.request("heirs", args, 0))
        for p, code in (("1", 0), ("2", 0), ("inf", 0), ("0", 3)):
            reqs.append(self.request("certify-lp", ["--p", p], code))
        for _ in range(3):  # the default seed: the same battery in every run
            reqs.append(self.request("check", ["--scale", self.CHECK_SCALE], 0, lambda d: d["ok"]))
        return reqs

    def warm_requests(self, rng):
        tree = gi.Tree(rng, 16, prefix="w")
        return [
            self.request("validate", [self.write("warm", "s16", tree.space_doc())], 0),
            self.request("check", ["--seed", "1", "--scale", "0.01"], 0),
        ]


def _hausdorff_ok(doc, e, f) -> bool:
    value = Fraction(doc["ballmin"])
    return doc["supinf"] == doc["ballmin"] and value in oracle.hausdorff_candidates(e, f)


def _criterion_seconds(stdout: str) -> dict[int, float]:
    try:
        return {c["number"]: c["seconds"] for c in json.loads(stdout)["criteria"]}
    except (ValueError, KeyError, TypeError):
        return {}


def _without_seconds(stdout: str):
    try:
        doc = json.loads(stdout)
        for c in doc["criteria"]:
            c.pop("seconds", None)
        return doc
    except (ValueError, KeyError, TypeError):
        return stdout


WORKLOADS = {w.name: w for w in (EmbedMixed, HyperspacePoints, SearchBattery, Cli)}
