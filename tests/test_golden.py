"""Byte-level pins of the testers', the oracle's, the poset writer's, the
reductions' and the lower-bound construction's output.

The tester strings below were produced by the dict-loop implementation of
the pair histogram, the tester's rescale and the midpoint statistic (before
they moved onto numpy arrays), from exactly the inputs built here. Any change
to those steps that moves a bit of a statistic, a threshold, a sample count or
a detail shows up as a string mismatch.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from posetdist import (
    Distribution,
    ExactDistAccess,
    LearnerSpec,
    LiftedAccess,
    PairHistogram,
    Rng,
    bipartite_bounded_degree_test,
    bipartite_to_matching,
    build_priors,
    general_to_bipartite,
    generate_instance,
    make_bipartite,
    make_hypercube,
    make_line,
    make_matching,
    matching_monotonicity_test,
    pair_histogram,
    write_distribution,
    write_poset,
)
from posetdist.cli import main

from genutil import BENCH_PRIORS, random_bipartite, random_dag
from lb_pins import pin_tables_source

EPS = 0.25


def _matching_inputs(n_pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0.2, 1.0, n_pairs)
    mono = np.concatenate([lo, lo + rng.uniform(0.05, 1.0, n_pairs)])
    theta = rng.uniform(2.1 * EPS, 2.9 * EPS, n_pairs)
    far = np.concatenate([1.0 + theta, 1.0 - theta])
    # monotone with no margin on every other pair: sampling noise alone makes
    # violations, so the statistic is a long sum of small terms
    tight = np.concatenate([lo, np.where(np.arange(n_pairs) % 2 == 0, lo, 1.5 * lo)])
    return {name: Distribution(v / v.sum()) for name, v in (("mono", mono), ("far", far), ("tight", tight))}


def _bipartite_inputs(nb: int, seed: int):
    """Degree-3 bipartite poset (identity plus two random perfect matchings)
    with a monotone and a far distribution."""
    rng = np.random.default_rng(seed)
    edges = {(i, nb + i) for i in range(nb)}
    for _ in range(2):
        perm = rng.permutation(nb)
        edges.update((i, nb + int(perm[i])) for i in range(nb))
    G = make_bipartite(2 * nb, sorted(edges), bottom=range(nb))
    mono = np.concatenate([0.6 * (1 + 0.2 * rng.random(nb)), 1.4 * (1 + 0.2 * rng.random(nb))])
    far = np.concatenate([1.5 * (1 + 0.1 * rng.random(nb)), 0.5 * (1 + 0.1 * rng.random(nb))])
    return G, Distribution(mono / mono.sum()), Distribution(far / far.sum())


def _cli_csv(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return capsys.readouterr().out


GOLDEN_MATCHING_CSV = {
    "mono": (
        "trial,decision,stat,threshold\n"
        "0,accept,0.0,0.05357142857142857\n"
        "1,accept,0.0,0.05357142857142857\n"
        "2,accept,0.0,0.05357142857142857\n"
    ),
    "far": (
        "trial,decision,stat,threshold\n"
        "0,reject,0.3130050989535916,0.05357142857142857\n"
        "1,reject,0.31033448007097936,0.05357142857142857\n"
        "2,reject,0.3094775469548293,0.05357142857142857\n"
    ),
    "tight": (
        "trial,decision,stat,threshold\n"
        "0,accept,0.000765048937637589,0.05357142857142857\n"
        "1,accept,0.0007072642778024944,0.05357142857142857\n"
        "2,accept,0.0003068046783136887,0.05357142857142857\n"
    ),
}

GOLDEN_BIPARTITE_CSV = {
    "mono": (
        "trial,decision,stat,threshold\n"
        "0,accept,0.0,0.008928571428571428\n"
        "1,accept,0.0,0.008928571428571428\n"
        "2,accept,0.0,0.008928571428571428\n"
    ),
    "far": (
        "trial,decision,stat,threshold\n"
        "0,reject,0.2477716661090511,0.008928571428571428\n"
        "1,reject,0.2478568931434668,0.008928571428571428\n"
        "2,reject,0.2460748568069308,0.008928571428571428\n"
    ),
}


@pytest.mark.parametrize("kind", ["mono", "far", "tight"])
def test_matching_csv_bytes_on_1e4_pairs(tmp_path, capsys, kind):
    n_pairs = 10_000
    write_poset(make_matching(n_pairs), tmp_path / "m.poset")
    write_distribution(_matching_inputs(n_pairs, 2024)[kind], tmp_path / "m.dist")
    out = _cli_csv(capsys, ["test", "--alg", "matching", "--poset", str(tmp_path / "m.poset"),
                            "--dist", str(tmp_path / "m.dist"), "--eps", str(EPS),
                            "--trials", "3", "--seed", "11"])
    assert out == GOLDEN_MATCHING_CSV[kind]


@pytest.mark.parametrize("kind", ["mono", "far"])
def test_bipartite_csv_bytes(tmp_path, capsys, kind):
    G, mono, far = _bipartite_inputs(200, 2025)
    write_poset(G, tmp_path / "b.poset")
    write_distribution(mono if kind == "mono" else far, tmp_path / "b.dist")
    out = _cli_csv(capsys, ["test", "--alg", "bipartite", "--poset", str(tmp_path / "b.poset"),
                            "--dist", str(tmp_path / "b.dist"), "--eps", str(EPS), "--delta", "3",
                            "--trials", "3", "--seed", "13"])
    assert out == GOLDEN_BIPARTITE_CSV[kind]


def _fractional_learner(cb, ct, step):
    """External learner with fractional counts: the plug-in histogram with
    each count scaled by 0.37."""
    g = pair_histogram(cb / max(cb.sum(), 1.0), ct / max(ct.sum(), 1.0), quantize=step)
    return PairHistogram({key: 0.37 * c for key, c in g.items()})


def _verdicts():
    inputs = _matching_inputs(1000, 7)
    G = make_matching(1000)
    out = []
    for k, kind in enumerate(("mono", "far", "tight", "far")):
        out.append(matching_monotonicity_test(G, ExactDistAccess(inputs[kind]), EPS, rng=Rng(7).derive(k)))
    learner = LearnerSpec(kind="external", learn_pair_histogram=_fractional_learner, budget_multiplier=2.0)
    for kind in ("far", "tight"):
        out.append(matching_monotonicity_test(G, ExactDistAccess(inputs[kind]), EPS, learner, Rng(8)))
    small = make_matching(5)
    p_small = Distribution(np.array([0.3, 0.05, 0.2, 0.1, 0.05, 0.02, 0.1, 0.03, 0.1, 0.05]))
    out.append(matching_monotonicity_test(small, ExactDistAccess(p_small), 0.9, rng=Rng(9)))
    B, bmono, bfar = _bipartite_inputs(60, 2026)
    for k, p in enumerate((bmono, bfar)):
        out.append(bipartite_bounded_degree_test(B, ExactDistAccess(p), 3, EPS, rng=Rng(10).derive(k)))
    return [repr(v) for v in out]


GOLDEN_VERDICTS = [
    "Verdict(decision='accept', stat=0.0, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.4215120624196586, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.31170968991195774, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.6558548324414816, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='accept', stat=0.002593431699056738, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.4749932737436848, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.31216803483690586, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.6560840233974071, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.11588786502398903, threshold=0.05357142857142857, samples=1008318, details={'bottom_mass': 0.6566021942542823, 'learn_budget': 907965, 'mass_budget': 100353})",
    "Verdict(decision='accept', stat=0.0023299848132601587, threshold=0.05357142857142857, samples=1008318, details={'bottom_mass': 0.47198389684414016, 'learn_budget': 907965, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.22597202875690156, threshold=0.1928571428571429, samples=31942, details={'bottom_mass': 0.5996900826446281, 'learn_budget': 24198, 'mass_budget': 7744})",
    "Verdict(decision='accept', stat=0.0, threshold=0.008928571428571428, samples=419069954, details={'bottom_mass': 0.39765818827222943, 'learn_budget': 415457281, 'mass_budget': 3612673})",
    "Verdict(decision='reject', stat=0.24451890549022592, threshold=0.008928571428571428, samples=419069954, details={'bottom_mass': 0.6167131650165958, 'learn_budget': 415457281, 'mass_budget': 3612673})",
]


def test_verdict_reprs():
    assert _verdicts() == GOLDEN_VERDICTS


# The benchmark's largest shape: 10^5 pairs, a learn budget of 6.27e9 and
# about 10^5 distinct learned keys.
GOLDEN_VERDICTS_1E5 = [
    "Verdict(decision='accept', stat=0.0, threshold=0.05357142857142857, samples=6272100354, details={'bottom_mass': 0.42347513278128207, 'learn_budget': 6272000001, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.31583510649846097, threshold=0.05357142857142857, samples=6272100354, details={'bottom_mass': 0.6579175510448119, 'learn_budget': 6272000001, 'mass_budget': 100353})",
    "Verdict(decision='accept', stat=0.00298426917917575, threshold=0.05357142857142857, samples=6272100354, details={'bottom_mass': 0.47532211294131715, 'learn_budget': 6272000001, 'mass_budget': 100353})",
]


def test_verdict_reprs_on_1e5_pairs():
    G = make_matching(100_000)
    inputs = _matching_inputs(100_000, 31)
    got = [repr(matching_monotonicity_test(G, ExactDistAccess(inputs[kind]), EPS, rng=Rng(31).derive(k)))
           for k, kind in enumerate(("mono", "far", "tight"))]
    assert got == GOLDEN_VERDICTS_1E5


# Counts far beyond 2^32 on a 2-pair matching: the product of a bottom and a
# top count does not fit in int64, and at the larger budget neither does a
# count fit in a float's 53 bits.
GOLDEN_VERDICTS_HUGE_COUNTS = [
    "Verdict(decision='reject', stat=0.0999684085793715, threshold=0.002142857142857143, samples=5655427280286, details={'bottom_mass': 0.4999648995541311, 'learn_budget': 5655364560285, 'mass_budget': 62720001})",
    "Verdict(decision='reject', stat=0.09996840959769868, threshold=0.002142857142857143, samples=5655364560347457537, details={'bottom_mass': 0.4999648995541311, 'learn_budget': 5655364560284737536, 'mass_budget': 62720001})",
]


def test_verdict_reprs_with_huge_counts():
    p = Distribution(np.array([0.3, 0.2, 0.1, 0.4]))
    got = [repr(matching_monotonicity_test(make_matching(2), ExactDistAccess(p), 0.01,
                                           LearnerSpec(budget_multiplier=mult), Rng(12)))
           for mult in (1e6, 1e12)]
    assert got == GOLDEN_VERDICTS_HUGE_COUNTS


# Lower-bound construction: byte pins of `lb gen`, `lb probe` and the raw
# generate_instance output, on the benchmark's two prior settings. Atoms are
# drawn as Generator.choice draws them, counts per prior atom
# (lowerbound._poisson_counts). The s = 0 pins, the "explicit" `lb gen` run
# and the n = 1 instances hold the bytes of the construction's first
# implementation (one Generator.poisson call over the n rates); the "eps"
# histograms, the s = 300 probe row and the two instances at n = 10^4,
# s = 10^5 were re-pinned when the counts moved to per-atom draws.
# `PYTHONPATH=src python tests/lb_pins.py` prints all three tables.


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lb_gen_digests(tmp_path, argv) -> dict:
    prefix = tmp_path / "inst"
    assert main(["lb", "gen", *argv, "--out-prefix", str(prefix)]) == 0
    return {p.name[len("inst."):]: _sha(p.read_bytes()) for p in sorted(tmp_path.glob("inst.*"))}


GOLDEN_LB_GEN = {
    "eps": {
        "big.dist": "e2b495fb0633f9b162eb541015d865ccad86c88c316c38b39f7396dfefb0a9f6",
        "big.hist.csv": "350d4d974d1ec09dbc3891d6fa64b4fea656d0ec4d4995ffb2ef519d41bb09ca",
        "events.csv": "82b49d449eb746ab5878b6491098bf07586dbaac7e2414ab3220a01c96ac19c9",
        "far.dist": "fa0dde0571417af19e163d6645903de7c253801ebb41f056f6d40b181219f4bf",
        "far.hist.csv": "899b95049e89071fef04abcdbaa2481ec0670d2c7a52de447feff32c8ea502cd",
    },
    "explicit": {
        "big.dist": "297b6c41d40c5cd945e99f86119675b5fae7e2c8444d9b0b5b402d96124e0cab",
        "big.hist.csv": "771db7d80d4708f221002aafa957c42f227077ac4166c42b6e28496a0d6ddfe3",
        "events.csv": "fc9f7b4f9b8c427eb5c70c0d37d7e1aa1ff9d4dd688e734a080d8730bedce82a",
        "far.dist": "47ff65b70d3880c2f77be8a6f106b71054b02cd8095d227b489f392ca594fc67",
        "far.hist.csv": "771db7d80d4708f221002aafa957c42f227077ac4166c42b6e28496a0d6ddfe3",
    },
}

LB_GEN_ARGV = {
    "eps": ["--n", "3000", "--L", "4", "--eps", "0.0025", "--seed", "31"],
    "explicit": ["--n", "2500", "--L", "5", "--nu", "0.5", "--lambda", "12", "--s", "0", "--seed", "37"],
}


@pytest.mark.parametrize("run", ["eps", "explicit"])
def test_lb_gen_artifact_bytes(tmp_path, run):
    assert lb_gen_digests(tmp_path, LB_GEN_ARGV[run]) == GOLDEN_LB_GEN[run]


GOLDEN_LB_PROBE_CSV = (
    's,kept_big,kept_far,best_stat,advantage,ci_half\n'
    '0,40,40,0,0.0,0.08762160119728664\n'
    '300,40,40,3,0.25000000000000006,0.2859664523819909\n'
    '5000,40,40,0,1.0,0.08762160119728664\n'
)


LB_PROBE_ARGV = ["lb", "probe", "--nu", "0.5", "--lambda", "6", "--L", "4", "--n", "800",
                 "--s-values", "0,300,5000", "--trials", "40", "--seed", "41"]


def test_lb_probe_csv_bytes(capsys):
    assert _cli_csv(capsys, LB_PROBE_ARGV) == GOLDEN_LB_PROBE_CSV


def _instance_pin(priors, n: int, s: int, seed: int) -> str:
    """sha256 over every array of one instance (dtype, shape and bytes, the
    normalized views included) and the generator state it leaves, followed by
    the repr of its scalar fields."""
    rng = Rng(seed)
    inst = generate_instance(priors, n, s, rng)
    h = hashlib.sha256()
    arrays = [inst.raw_big, inst.raw_far, inst.hist_big, inst.hist_far]
    arrays += [norm.probs for norm in (inst.norm_big, inst.norm_far) if norm is not None]
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr(rng.gen.bit_generator.state).encode())
    fields = (inst.zero_count, inst.event_big, inst.event_far, inst.p_max,
              inst.norm_big is None, inst.norm_far is None)
    return h.hexdigest()[:32] + " " + " ".join(repr(f) for f in fields)


# (prior setting, n, s, seed); the last two seeds draw the far side's zero
# atom for the single element, so that side has no normalized view
_INSTANCE_CASES = [(k, n, s, 1000 * k + n + s) for k in (0, 1) for n in (1, 10_000) for s in (0, 100_000)]
_INSTANCE_CASES += [(0, 1, 100_000, 22), (1, 1, 0, 7)]


def instance_pins() -> list[str]:
    priors = [build_priors(*setting) for setting in BENCH_PRIORS]
    return [_instance_pin(priors[k], n, s, seed) for k, n, s, seed in _INSTANCE_CASES]


GOLDEN_INSTANCES = [
    '2967f0daccc610a544fe987067f0622a 0 np.False_ False 1.0 False False',
    '37de3f778ce584d3a1d6df5bbce16541 0 np.True_ False 1.0 False False',
    '408c710d0d13b4effccfa65f18e3e3b4 450 np.False_ np.False_ 0.00025522207487864825 False False',
    '5d28f2397fa86a87da9de0428b2c64c1 449 np.True_ np.True_ 0.0002548442796916962 False False',
    'b2b116338a0feb4ed442d056a00f0742 0 np.False_ False 1.0 False False',
    '49fe7345a691a5ea01a0a6507b4378ee 0 np.True_ False 1.0 False False',
    'fd17f0f1d8afc43c4c7213359248afd5 775 np.False_ np.False_ 0.00046802380851732376 False False',
    '5ac7595122eb8eb621fe1523148aeffa 785 np.True_ np.True_ 0.0004687385930170577 False False',
    '9fc9ef8cf2200cb09d4aff80eea11114 1 np.True_ np.False_ 1.0 False True',
    'c209a5ea828578ae08812a39b994ddad 1 np.False_ np.False_ 1.0 False True',
]


def test_generate_instance_pins():
    assert instance_pins() == GOLDEN_INSTANCES


def test_lb_pin_printer_spells_these_tables():
    """tests/lb_pins.py prints the three tables above as this file spells them."""
    with open(__file__, encoding="utf-8") as fh:
        source = fh.read()
    for table in pin_tables_source(GOLDEN_LB_GEN, GOLDEN_LB_PROBE_CSV, GOLDEN_INSTANCES).split("\n\n\n"):
        assert table in source


# Poset files and the oracle CSV: byte pins produced by the tuple-backed
# Poset (loop-based validation, stored top/dim), from exactly the inputs
# built here.


def _pin_posets():
    rng = np.random.default_rng(4242)
    bip = make_bipartite(9, [(0, 5), (0, 6), (1, 5), (2, 7), (3, 8), (4, 8), (4, 5)], bottom=[4, 0, 2, 1, 3])
    return {
        "line": make_line(7),
        "matching": make_matching(5),
        "bipartite": bip,
        "hypercube": make_hypercube(4),
        "g2b": general_to_bipartite(random_dag(rng, 9)).target,
        "b2m": bipartite_to_matching(bip, 3).target,
    }


GOLDEN_POSET_FILES = {
    "line": "a150d67c0a5162b05b3e3fde2c303eeb7ec4c01449b52822916efdddaa826bf6",
    "matching": "fb5b5dadae02a0eac6670ccb857ce3ab325070c4fc01cd68fa474696494c3894",
    "bipartite": "07cda8fb56521567d136d9ddd991ece2bc38faaaadaa57a24249ec49ca30527e",
    "hypercube": "8509689bf89567ebd864d23f847106791e2d24f5bdd9f03a57ef077f6e5ed07e",
    "g2b": "603262a3a862c65febea98e8f8f8a07537aac8bd7caf141bb6f93c3c89079623",
    "b2m": "93f719426a37b903c2e47e922f1d8e98ba813a8429890f4cef0ac036a46bbb9a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_POSET_FILES))
def test_write_poset_bytes(tmp_path, name):
    path = tmp_path / f"{name}.poset"
    write_poset(_pin_posets()[name], path)
    assert _sha(path.read_bytes()) == GOLDEN_POSET_FILES[name]


def _oracle_inputs(name: str):
    rng = np.random.default_rng({"cube5": 51, "dag40": 52, "bipartite": 53, "matching": 54}[name])
    if name == "cube5":
        G = make_hypercube(5)
    elif name == "dag40":
        G = random_dag(rng, 40, edge_prob=0.15)
    elif name == "bipartite":
        G = random_bipartite(rng, 10, 14, edge_prob=0.3)
    else:
        G = make_matching(20)
    v = rng.exponential(1.0, G.n)
    return G, Distribution(v / v.sum())


GOLDEN_ORACLE_CSV = {
    "cube5": 'd_tv,matching_weight,lp_value\n0.2903733444985554,0.5590136694871812,0.5590136694871812\n',
    "dag40": 'd_tv,matching_weight,lp_value\n0.24666857189935615,0.4853439818113151,0.48534398181131505\n',
    "bipartite": 'd_tv,matching_weight,lp_value\n0.07949292189799254,0.15898584379598507,0.15898584379598507\n',
    "matching": 'd_tv,matching_weight,lp_value\n0.1831213082571746,0.3662426165143492,0.3662426165143492\n',
}


@pytest.mark.parametrize("name", sorted(GOLDEN_ORACLE_CSV))
def test_oracle_csv_bytes(tmp_path, capsys, name):
    G, p = _oracle_inputs(name)
    write_poset(G, tmp_path / "g.poset")
    write_distribution(p, tmp_path / "g.dist")
    out = _cli_csv(capsys, ["oracle", "--poset", str(tmp_path / "g.poset"), "--dist", str(tmp_path / "g.dist")])
    assert out == GOLDEN_ORACLE_CSV[name]


# `posetdist suite --manifest manifests/demo.suite --seed 42`: stdout and
# stderr. Its oracle row reads the function-distance `lp_value`.
GOLDEN_DEMO_SUITE = (
    "row,seed,status,value,check\n"
    "0,42,0,0.3,pass\n"
    "1,43,0,0.018518048670606597,pass\n"
    "2,40,0,1.0,pass\n",
    "",
)


def test_demo_suite_bytes(capsys):
    manifest = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "manifests", "demo.suite")
    capsys.readouterr()
    assert main(["suite", "--manifest", manifest, "--seed", "42"]) == 0
    assert capsys.readouterr() == GOLDEN_DEMO_SUITE


# Reductions: byte pins of `reduce --kind g2b/b2m` output and of lifted
# samples, produced by the lift-table implementation (per-row branch
# tuples), from exactly the inputs built here.


def _lift_reductions():
    rng = np.random.default_rng(808)
    bip = make_bipartite(9, [(0, 5), (0, 6), (1, 5), (2, 7), (3, 8), (4, 8), (4, 5)], bottom=[4, 0, 2, 1, 3])
    return {
        "g2b": general_to_bipartite(random_dag(rng, 9)),
        "b2m1": bipartite_to_matching(make_bipartite(8, [(0, 5), (1, 4), (3, 6)], bottom=[0, 1, 2, 3]), 1),
        "b2m3": bipartite_to_matching(bip, 3),
    }


def _lift_pin(name: str, method: str, s: int) -> str:
    """sha256 (first 32 hex digits) over the dtype, shape and bytes of one
    draw or histogram of s lifted samples and the generator state after it."""
    red = _lift_reductions()[name]
    v = np.random.default_rng(809).exponential(1.0, red.source.n)
    v[1] = 0.0  # a source row with no mass
    access = LiftedAccess(ExactDistAccess(Distribution(v / v.sum())), red)
    rng = Rng(810, s)
    out = getattr(access, method)(s, rng)
    h = hashlib.sha256(f"{out.dtype.str}{out.shape}".encode())
    h.update(out.tobytes())
    h.update(repr(rng.gen.bit_generator.state).encode())
    return h.hexdigest()[:32]


GOLDEN_LIFTS = {
    "b2m1/draw/0": "e2a90e6a5d5fdfdc2a8e7ac0b06aac8c",
    "b2m1/draw/1": "fe326eb99cccc6adbcb000010cb02991",
    "b2m1/draw/100000": "d2a4b1b0a6d770a4c7efd91a7e518ab9",
    "b2m1/draw/500": "a9d585758daa78563663793055233d37",
    "b2m1/histogram/0": "694b9a19bc70f607e8c3614e07aadbda",
    "b2m1/histogram/1": "cf707916fc4f4e00c621a57b8399df71",
    "b2m1/histogram/100000": "c20f353942c7218248283711207b03ac",
    "b2m1/histogram/500": "669c42c7cc4468fb90e3c0fa27964e3e",
    "b2m3/draw/0": "e2a90e6a5d5fdfdc2a8e7ac0b06aac8c",
    "b2m3/draw/1": "002016910c75dd52a9458fc5b411211d",
    "b2m3/draw/100000": "1c9e55336041d9497fa1d5fa92e062f5",
    "b2m3/draw/500": "21258757fe4acc588da95050633b3211",
    "b2m3/histogram/0": "1b75e1e7061b79e87487965cb964954c",
    "b2m3/histogram/1": "f201a91488e52b8202ead5aac03a42d0",
    "b2m3/histogram/100000": "ce4ecf2161f9bc5408f52d850c336e66",
    "b2m3/histogram/500": "9cc8e7def3b6b494182cc3ca19dc7f0b",
    "g2b/draw/0": "e2a90e6a5d5fdfdc2a8e7ac0b06aac8c",
    "g2b/draw/1": "4cae22b28f5a4a5867ea888ec3d7aa4e",
    "g2b/draw/100000": "c578ac524823abd63d039ae4197d30e2",
    "g2b/draw/500": "7558cd88d4cd6aa9c5009ac004b48fef",
    "g2b/histogram/0": "1f66d52d29642c09445798fd64e9963c",
    "g2b/histogram/1": "3be113471333257b95b5105616336983",
    "g2b/histogram/100000": "4ac801f7c171d42aa6f31574f559eeb8",
    "g2b/histogram/500": "817d4badeae29a726d8360e071cb3cbd",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_LIFTS))
def test_lifted_sample_pins(key):
    name, method, s = key.split("/")
    assert _lift_pin(name, method, int(s)) == GOLDEN_LIFTS[key]


GOLDEN_LIFT_SEQUENCE = [
    "0 7 6 5 4 3 2 1 0",
    "79a24c3fced2b0e2",
    "2 23 16 10 3 26 18 13 8",
    "3277c632845324b9",
    "9 16 14 3 1 17 6 13 11",
    "3277c632845324b9",
]


def test_lift_sequence_pin():
    out = []
    for name, red in sorted(_lift_reductions().items()):
        rng = Rng(811)
        out.append(" ".join(str(red.lift(i % red.source.n, rng)) for i in range(0, 60, 7)))
        out.append(_sha(repr(rng.gen.bit_generator.state).encode())[:16])
    assert out == GOLDEN_LIFT_SEQUENCE


def _reduce_digests(tmp_path, kind: str, source, extra=()) -> tuple[str, str]:
    write_poset(source, tmp_path / "src.poset")
    v = np.random.default_rng(812).exponential(1.0, source.n)
    write_distribution(Distribution(v / v.sum()), tmp_path / "src.dist")
    out_p, out_d = tmp_path / "out.poset", tmp_path / "out.dist"
    assert main(["reduce", "--from", str(tmp_path / "src.poset"), "--kind", kind,
                 "--dist", str(tmp_path / "src.dist"), *extra,
                 "--out-poset", str(out_p), "--out-dist", str(out_d)]) == 0
    return _sha(out_p.read_bytes()), _sha(out_d.read_bytes())


GOLDEN_REDUCE = {
    "b2m": (
        "aa74145500d4872e1b82be35e28385ab890cbe873abdf0e11119799a57497919",
        "d176c08824f9b7b4d3231864bb3f909d243993926b183c7e141c5618c303e970",
    ),
    "b2m-delta": (
        "e070673d4d7c3d0a06843b402ef14b5f215581eedf96c734f4863020c5dda868",
        "b142b2dab341ac1d0bb429d3a11263e69958d39537aea35e496c4a4024373d39",
    ),
    "g2b": (
        "35939a796d940bf351b420aeeff808a25ed96d33524c1ac685daaac1f1fdcbb0",
        "cfb93eb09e4b5427f7cf17dd9826e5a336df855994e962811b95b0d9692820c1",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REDUCE))
def test_reduce_output_bytes(tmp_path, capsys, case):
    rng = np.random.default_rng(813)
    sources = {
        "g2b": ("g2b", random_dag(rng, 12), ()),
        "b2m": ("b2m", random_bipartite(rng, 7, 6, edge_prob=0.4), ()),
        "b2m-delta": ("b2m", random_bipartite(rng, 5, 5, edge_prob=0.3), ("--delta", "5")),
    }
    kind, source, extra = sources[case]
    assert _reduce_digests(tmp_path, kind, source, extra) == GOLDEN_REDUCE[case]
