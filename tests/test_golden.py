"""Byte-level pins of the testers', the oracle's, the poset writer's, the
reductions' and the lower-bound construction's output.

The matching testers' strings below were produced by scoring the learned
counts one vertex pair at a time (each pair a unit key of the midpoint
statistic), from exactly the inputs built here; their bottom-mass counts and
the uniform-subset tester's stage-2 counts were drawn by
SampleAccess.count_in. Any change to those steps that
moves a bit of a statistic, a threshold, a sample count or a detail shows up
as a string mismatch.
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
        "0,reject,0.3070461271710859,0.05357142857142857\n"
        "1,reject,0.3116698055862791,0.05357142857142857\n"
        "2,reject,0.3168315845066911,0.05357142857142857\n"
    ),
    "tight": (
        "trial,decision,stat,threshold\n"
        "0,accept,0.0005533419910781323,0.05357142857142857\n"
        "1,accept,0.0008706342063216711,0.05357142857142857\n"
        "2,accept,0.0009305737112873658,0.05357142857142857\n"
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
        "0,reject,0.24759341308542088,0.008928571428571428\n"
        "1,reject,0.24737795485122344,0.008928571428571428\n"
        "2,reject,0.24813231651941262,0.008928571428571428\n"
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


# `test --alg uniform-subset` on a 1000+1000 degree-3 bipartite poset. On the
# narrow input (uniform on 100 bottoms and every top) the sampled bottoms
# reach few tops, so stage 1 accepts (branch 1); on the wide input (uniform
# on everything) they reach nearly every top and stage 2 decides (branch 2).
GOLDEN_UNIFORM_SUBSET_CSV = {
    "branch1": (
        "trial,decision,stat,threshold\n"
        "0,accept,268.0,635.0\n"
        "1,accept,268.0,635.0\n"
        "2,accept,268.0,635.0\n"
    ),
    "branch2": (
        "trial,decision,stat,threshold\n"
        "0,accept,-240.2475,0.0\n"
        "1,accept,-184.88250000000005,0.0\n"
        "2,accept,-210.6125,0.0\n"
    ),
}


@pytest.mark.parametrize("kind", ["branch1", "branch2"])
def test_uniform_subset_csv_bytes(tmp_path, capsys, kind):
    G, _, _ = _bipartite_inputs(1000, 2027)
    v = np.ones(G.n)
    if kind == "branch1":
        v[100:1000] = 0.0
    write_poset(G, tmp_path / "u.poset")
    write_distribution(Distribution(v / v.sum()), tmp_path / "u.dist")
    out = _cli_csv(capsys, ["test", "--alg", "uniform-subset", "--poset", str(tmp_path / "u.poset"),
                            "--dist", str(tmp_path / "u.dist"), "--eps", str(EPS),
                            "--trials", "3", "--seed", "17"])
    assert out == GOLDEN_UNIFORM_SUBSET_CSV[kind]


# `test --alg all-matchings` on a 4+4 random bipartite poset whose largest
# matchable bottom-over-top mass gap sits near the threshold, so that the
# trials split between accept and reject.
GOLDEN_ALL_MATCHINGS_CSV = (
    "trial,decision,stat,threshold\n"
    "0,accept,0.12109375,0.125\n"
    "1,accept,0.1171875,0.125\n"
    "2,reject,0.126953125,0.125\n"
    "3,accept,0.123046875,0.125\n"
    "4,accept,0.115234375,0.125\n"
    "5,accept,0.1171875,0.125\n"
)


def test_all_matchings_csv_bytes(tmp_path, capsys):
    rng = np.random.default_rng(2026)
    G = random_bipartite(rng, 4, 4, edge_prob=0.5)
    v = rng.exponential(1.0, G.n)
    write_poset(G, tmp_path / "g.poset")
    write_distribution(Distribution(v / v.sum()), tmp_path / "g.dist")
    out = _cli_csv(capsys, ["test", "--alg", "all-matchings", "--poset", str(tmp_path / "g.poset"),
                            "--dist", str(tmp_path / "g.dist"), "--eps", str(EPS),
                            "--trials", "6", "--seed", "7"])
    assert out == GOLDEN_ALL_MATCHINGS_CSV


def _verdicts():
    inputs = _matching_inputs(1000, 7)
    G = make_matching(1000)
    out = []
    for k, kind in enumerate(("mono", "far", "tight", "far")):
        out.append(matching_monotonicity_test(G, ExactDistAccess(inputs[kind]), EPS, rng=Rng(7).derive(k)))
    small = make_matching(5)
    p_small = Distribution(np.array([0.3, 0.05, 0.2, 0.1, 0.05, 0.02, 0.1, 0.03, 0.1, 0.05]))
    out.append(matching_monotonicity_test(small, ExactDistAccess(p_small), 0.9, rng=Rng(9)))
    B, bmono, bfar = _bipartite_inputs(60, 2026)
    for k, p in enumerate((bmono, bfar)):
        out.append(bipartite_bounded_degree_test(B, ExactDistAccess(p), 3, EPS, rng=Rng(10).derive(k)))
    return [repr(v) for v in out]


GOLDEN_VERDICTS = [
    "Verdict(decision='accept', stat=0.0, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.4226779468476279, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.30565105178719126, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.6528255258935957, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='accept', stat=0.0002034944122816005, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.470568891811904, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.313244247805247, threshold=0.05357142857142857, samples=62820353, details={'bottom_mass': 0.6566221239026238, 'learn_budget': 62720000, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.21820827992093417, threshold=0.1928571428571429, samples=31942, details={'bottom_mass': 0.5928460743801653, 'learn_budget': 24198, 'mass_budget': 7744})",
    "Verdict(decision='accept', stat=0.0, threshold=0.008928571428571428, samples=419069954, details={'bottom_mass': 0.39733294433235444, 'learn_budget': 415457281, 'mass_budget': 3612673})",
    "Verdict(decision='reject', stat=0.2453184834357139, threshold=0.008928571428571428, samples=419069954, details={'bottom_mass': 0.6171308612764012, 'learn_budget': 415457281, 'mass_budget': 3612673})",
]


def test_verdict_reprs():
    assert _verdicts() == GOLDEN_VERDICTS


# The benchmark's largest shape: 10^5 pairs and a learn budget of 6.27e9.
GOLDEN_VERDICTS_1E5 = [
    "Verdict(decision='accept', stat=0.0, threshold=0.05357142857142857, samples=6272100354, details={'bottom_mass': 0.42453140414337387, 'learn_budget': 6272000001, 'mass_budget': 100353})",
    "Verdict(decision='reject', stat=0.3129453030801282, threshold=0.05357142857142857, samples=6272100354, details={'bottom_mass': 0.6564726515400636, 'learn_budget': 6272000001, 'mass_budget': 100353})",
    "Verdict(decision='accept', stat=0.0007029781610591474, threshold=0.05357142857142857, samples=6272100354, details={'bottom_mass': 0.47209350991001764, 'learn_budget': 6272000001, 'mass_budget': 100353})",
]


def test_verdict_reprs_on_1e5_pairs():
    G = make_matching(100_000)
    inputs = _matching_inputs(100_000, 31)
    got = [repr(matching_monotonicity_test(G, ExactDistAccess(inputs[kind]), EPS, rng=Rng(31).derive(k)))
           for k, kind in enumerate(("mono", "far", "tight"))]
    assert got == GOLDEN_VERDICTS_1E5


# Counts far beyond 2^32 on a 2-pair matching: at the larger budget a count
# does not fit in a float's 53 bits.
GOLDEN_VERDICTS_HUGE_COUNTS = [
    "Verdict(decision='reject', stat=0.10008021509720003, threshold=0.002142857142857143, samples=5655427280286, details={'bottom_mass': 0.5000888632001138, 'learn_budget': 5655364560285, 'mass_budget': 62720001})",
    "Verdict(decision='reject', stat=0.10007997711831992, threshold=0.002142857142857143, samples=5655364560347457537, details={'bottom_mass': 0.5000888632001138, 'learn_budget': 5655364560284737536, 'mass_budget': 62720001})",
]


def test_verdict_reprs_with_huge_counts():
    p = Distribution(np.array([0.3, 0.2, 0.1, 0.4]))
    got = [repr(matching_monotonicity_test(make_matching(2), ExactDistAccess(p), 0.01,
                                           learner=LearnerSpec(budget_multiplier=mult), rng=Rng(12)))
           for mult in (1e6, 1e12)]
    assert got == GOLDEN_VERDICTS_HUGE_COUNTS


# Lower-bound construction: byte pins of `lb gen`, `lb probe` and the raw
# generate_instance output, on the benchmark's two prior settings. Atoms are
# drawn as Generator.choice draws them, counts per prior atom
# (lowerbound._poisson_counts), from the priors of the gap program's
# closed-form optimum. A change that moves the atoms moves every table;
# `PYTHONPATH=src python tests/lb_pins.py` prints all three.


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def lb_gen_digests(tmp_path, argv) -> dict:
    prefix = tmp_path / "inst"
    assert main(["lb", "gen", *argv, "--out-prefix", str(prefix)]) == 0
    return {p.name[len("inst."):]: _sha(p.read_bytes()) for p in sorted(tmp_path.glob("inst.*"))}


GOLDEN_LB_GEN = {
    "eps": {
        "big.dist": "204d3c638d3152e9f3924ae005eb9b7af0df4b106e1fb7e5b75c7f24c9c6b2a9",
        "big.hist.csv": "a94b310e3cb49c19052c97091d9adac13063427329082a75c3d0be05f1cbcfa9",
        "events.csv": "548501d0bf360d59356a40adce363c2ce0b29e490afdbeb6f686667665b3446c",
        "far.dist": "3b992b806c35d847884db8bccd769282d7faa6538a3960bdcb565f1206ea6a93",
        "far.hist.csv": "ef6442220556531819d66db057261928945df44030aceee8498918e14444487e",
    },
    "explicit": {
        "big.dist": "1fdc2fed76b1ba054aea5c07f7aac823807b34bb817d317e7bf8ba35b45b9eac",
        "big.hist.csv": "771db7d80d4708f221002aafa957c42f227077ac4166c42b6e28496a0d6ddfe3",
        "events.csv": "415604e47ca1fe04cfdeaab756ce822cedd008dcaac6b0c46c1c5d118757c823",
        "far.dist": "df52787c03547d47e2822e46bfb1951b915867d11befc456d5ae4370590b45ed",
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
    's,best_stat,advantage,ci_half\n'
    '0,0,0.0,0.13492064477689944\n'
    '300,1,0.20000000000000007,0.3592249490549019\n'
    '5000,0,1.0,0.13492064477689944\n'
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
    'e0b8aa54c9b37ffd5b793df29e26630a 0 True False 1.0 False False',
    'b6228a098eb0a72448d90763fb0fb37e 0 True False 1.0 False False',
    'fae7006a01f1770b0cc5d54ca1d21e9e 449 True True 0.00025541560908641026 False False',
    'e68580eaacff6bad12ea9e7bd3d45d20 449 True True 0.0002552648372686662 False False',
    '16fd98042bf5c6bd406013a65547b0ec 0 False False 1.0 False False',
    'bdf77cd06db5e0fe66777d3a6b64c52d 0 True False 1.0 False False',
    'bd3e0a0f97762ebcca8f39722ed84e02 779 True True 0.0004659856844326315 False False',
    'e440ca13348829648033a2502993f46a 790 True True 0.0004671229343125852 False False',
    'a1cd9461f64c95bcfe47a25665b3e841 1 True False 1.0 False True',
    'd8ff4a38b025af76c71564359642c003 1 False False 1.0 False True',
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
    "dag40": 'd_tv,matching_weight,lp_value\n0.24666857189935615,0.4853439818113151,0.4853439818113151\n',
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
    "1,43,0,0.018518518518518462,pass\n"
    "2,40,0,1.0,pass\n",
    "",
)


def test_demo_suite_bytes(capsys):
    manifest = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "manifests", "demo.suite")
    capsys.readouterr()
    assert main(["suite", "--manifest", manifest, "--seed", "42"]) == 0
    assert capsys.readouterr() == GOLDEN_DEMO_SUITE


# Reductions: byte pins of `reduce` output and of lifted sample counts
# (LiftedAccess.histogram). The g2b/b2m and lift pins were produced by the
# lift-table implementation (per-row branch tuples), the big2m/m2hyp pins by
# the loop-built hypercube embedding, from exactly the inputs built here.


def _lift_reductions():
    rng = np.random.default_rng(808)
    bip = make_bipartite(9, [(0, 5), (0, 6), (1, 5), (2, 7), (3, 8), (4, 8), (4, 5)], bottom=[4, 0, 2, 1, 3])
    return {
        "g2b": general_to_bipartite(random_dag(rng, 9)),
        "b2m1": bipartite_to_matching(make_bipartite(8, [(0, 5), (1, 4), (3, 6)], bottom=[0, 1, 2, 3]), 1),
        "b2m3": bipartite_to_matching(bip, 3),
    }


def _lift_pin(name: str, s: int) -> str:
    """sha256 (first 32 hex digits) over the dtype, shape and bytes of the
    histogram of s lifted samples and the generator state after it."""
    red = _lift_reductions()[name]
    v = np.random.default_rng(809).exponential(1.0, red.source.n)
    v[1] = 0.0  # a source row with no mass
    access = LiftedAccess(ExactDistAccess(Distribution(v / v.sum())), red)
    rng = Rng(810, s)
    out = access.histogram(s, rng)
    h = hashlib.sha256(f"{out.dtype.str}{out.shape}".encode())
    h.update(out.tobytes())
    h.update(repr(rng.gen.bit_generator.state).encode())
    return h.hexdigest()[:32]


GOLDEN_LIFTS = {
    "b2m1/histogram/0": "694b9a19bc70f607e8c3614e07aadbda",
    "b2m1/histogram/1": "cf707916fc4f4e00c621a57b8399df71",
    "b2m1/histogram/100000": "c20f353942c7218248283711207b03ac",
    "b2m1/histogram/500": "669c42c7cc4468fb90e3c0fa27964e3e",
    "b2m3/histogram/0": "1b75e1e7061b79e87487965cb964954c",
    "b2m3/histogram/1": "f201a91488e52b8202ead5aac03a42d0",
    "b2m3/histogram/100000": "ce4ecf2161f9bc5408f52d850c336e66",
    "b2m3/histogram/500": "9cc8e7def3b6b494182cc3ca19dc7f0b",
    "g2b/histogram/0": "1f66d52d29642c09445798fd64e9963c",
    "g2b/histogram/1": "3be113471333257b95b5105616336983",
    "g2b/histogram/100000": "4ac801f7c171d42aa6f31574f559eeb8",
    "g2b/histogram/500": "817d4badeae29a726d8360e071cb3cbd",
}


@pytest.mark.parametrize("key", sorted(GOLDEN_LIFTS))
def test_lifted_sample_pins(key):
    name, _, s = key.split("/")
    assert _lift_pin(name, int(s)) == GOLDEN_LIFTS[key]


def _reduce_digests(tmp_path, kind: str, source, extra=()) -> tuple[str, str]:
    """Digests of the reduced poset and distribution files. source is a
    poset (g2b, b2m) or the size of a source distribution (big2m, m2hyp,
    which read it as --from)."""
    n = source if isinstance(source, int) else source.n
    v = np.random.default_rng(812).exponential(1.0, n)
    write_distribution(Distribution(v / v.sum()), tmp_path / "src.dist")
    if isinstance(source, int):
        inputs = ["--from", str(tmp_path / "src.dist")]
    else:
        write_poset(source, tmp_path / "src.poset")
        inputs = ["--from", str(tmp_path / "src.poset"), "--dist", str(tmp_path / "src.dist")]
    out_p, out_d = tmp_path / "out.poset", tmp_path / "out.dist"
    assert main(["reduce", *inputs, "--kind", kind, *extra,
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
    "big2m": (
        "f0f996dd53c5915a3f3359dc7c8211b02a1dd05aa029ef8095c4b4daf0ac99c3",
        "299fa47e22388cdb877dd8b1c56af15bb4add708ae4e72ab8cf755f5495150da",
    ),
    "big2m-T": (
        "f0f996dd53c5915a3f3359dc7c8211b02a1dd05aa029ef8095c4b4daf0ac99c3",
        "86fc6fb8c06befda16743db67453ed89fbe7642d1ae7655a2b89f1773df8b6d8",
    ),
    "g2b": (
        "35939a796d940bf351b420aeeff808a25ed96d33524c1ac685daaac1f1fdcbb0",
        "cfb93eb09e4b5427f7cf17dd9826e5a336df855994e962811b95b0d9692820c1",
    ),
    "m2hyp": (
        "450acef88b04786d067228a8b637111a2a87a3cbbdf13cfab6585119b6bd6381",
        "e779c61bb9f0c6361b479030aa7179b13a09dffeca39611e4c3a1fbcdf94bbfb",
    ),
    "m2hyp-ell1": (
        "8509689bf89567ebd864d23f847106791e2d24f5bdd9f03a57ef077f6e5ed07e",
        "4166e28d805ed23f3bd8c56334810e2c624badbf16338fa279df609434906a3e",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REDUCE))
def test_reduce_output_bytes(tmp_path, capsys, case):
    rng = np.random.default_rng(813)
    sources = {
        "g2b": ("g2b", random_dag(rng, 12), ()),
        "b2m": ("b2m", random_bipartite(rng, 7, 6, edge_prob=0.4), ()),
        "b2m-delta": ("b2m", random_bipartite(rng, 5, 5, edge_prob=0.3), ("--delta", "5")),
        "big2m": ("big2m", 12, ()),
        "big2m-T": ("big2m", 12, ("--T", "0.05")),
        "m2hyp": ("m2hyp", 20, ("--d", "6", "--ell", "3", "--pmax", "0.5")),
        "m2hyp-ell1": ("m2hyp", 2, ("--d", "4", "--ell", "1", "--pmax", "0.9")),
    }
    kind, source, extra = sources[case]
    assert _reduce_digests(tmp_path, kind, source, extra) == GOLDEN_REDUCE[case]
