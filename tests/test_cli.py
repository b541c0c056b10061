import json
import math
import os
import re
import time
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from friendbias import (GenSpec, bias_all, build_graph, cli, exact_mu,
                        ks_distance, levy_distance, mix_seed, realize,
                        save_edge_list, stationary_bias)
from friendbias.cli import ExperimentConfig, main, parse_schedule, schedule_k
from friendbias.measures import EmpiricalMeasure
from friendbias.stationary import MAX_DENSE_BYTES, MAX_EXACT_STATES
from friendbias.tree_limits import OffspringLaw


def write_config(tmp_path, name, **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(kwargs))
    return str(path)


def snapshot(outdir: Path) -> dict:
    return {p.relative_to(outdir): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


def test_schedule_parsing():
    assert parse_schedule("log_n(1.0)") == ("log_n", 1.0)
    assert parse_schedule("mix10(1e-4)") == ("mix10", 1e-4)
    with pytest.raises(Exception):
        parse_schedule("sqrt_n(2)")
    cfg = ExperimentConfig(experiment="joint", k="log_n(1)")
    assert schedule_k(cfg, 2000, 0) == 8
    assert schedule_k(cfg, 32000, 0) == 11
    cfg_list = ExperimentConfig(experiment="joint", k=[3, 5])
    assert schedule_k(cfg_list, 100, 1) == 5


def test_bias_on_star_file(tmp_path):
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    save_edge_list(star, tmp_path / "star.edges")
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       graph_file=str(tmp_path / "star.edges"),
                       kind="bt", k=1, out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 0
    summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    row = summary[2].split(",")
    assert row[0] == "bias"
    assert float(row[5]) == pytest.approx(1.0)           # mean bias
    assert float(row[6]) == pytest.approx(0.75)          # nonneg fraction
    m = EmpiricalMeasure.load_json(tmp_path / "out" / "bias_measure.json")
    assert m.values.tolist() == [-2.0, 2.0]
    assert m.meta["config"]["experiment"] == "bias"


def test_bias_regular_cm_family(tmp_path):
    # master seed 80: replica 0 of CM([3]*40) is simple, so erasure keeps it
    # 3-regular and the level-2 biases vanish identically
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "configuration", "n": 40,
                            "degree_seq": [3] * 40},
                       erase=True, kind="bt", k=2, seed=80,
                       out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    mean = float(rows[2].split(",")[5])
    nonneg = float(rows[2].split(",")[6])
    assert abs(mean) <= 1e-10
    assert nonneg == pytest.approx(1.0, abs=1e-12)


def _pooled_regular_bias(tmp_path, n, **extra):
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "configuration", "n": n,
                            "degree_seq": [3] * n},
                       out=str(out), **extra)
    assert main(["bias", "--config", cfg]) == 0
    return EmpiricalMeasure.load_json(out / "bias_measure_annealed.json")


def test_bias_annealed_regular_family_zero_bias(tmp_path):
    # master seed 80: both replicas of CM([3]*40) happen to be simple, so the
    # erased graphs stay 3-regular and every bias vanishes exactly
    for k in (1, 2, 3):
        pooled = _pooled_regular_bias(tmp_path / f"k{k}", 40, erase=True,
                                      kind="bt", k=k, seed=80, replicas=2)
        assert abs(pooled.meta["mean_bias"]) < 1e-12
        assert np.abs(pooled.values).max() < 1e-12


def test_bias_annealed_regular_multigraph_any_seed(tmp_path):
    # without erasure the multigraph keeps all degrees exactly 3
    pooled = _pooled_regular_bias(tmp_path, 30, kind="nb", k=4, seed=5,
                                  replicas=3)
    assert np.abs(pooled.values).max() < 1e-12


def test_bias_single_replica_equals_quenched(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "configuration", "n": 40,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", k=2, seed=12, out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 0
    m = EmpiricalMeasure.load_json(tmp_path / "out" / "bias_measure.json")
    spec = GenSpec(model="configuration", n=40, degree_pmf={3: 0.5, 4: 0.5})
    direct = bias_all(realize(replace(spec, seed=mix_seed(12, 0))), 2, "nb")
    assert np.array_equal(m.values, direct.values)
    assert np.array_equal(m.weights, direct.weights)


def test_bias_er_level1_matches_closed_form(tmp_path):
    # per-replica oracle: level-1 average bias has the closed form
    # sum over edges of (d_u/d_v + d_v/d_u - 2) / n
    replicas = 100
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "erdos_renyi", "n": 500, "lam": 4.0},
                       restrict_giant=True, kind="bt", k=1, seed=2024,
                       replicas=replicas, out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 0
    pooled = EmpiricalMeasure.load_json(
        tmp_path / "out" / "bias_measure_annealed.json")
    spec = GenSpec(model="erdos_renyi", n=500, lam=4.0)
    oracle_means = []
    for r in range(replicas):
        g = realize(replace(spec, seed=mix_seed(2024, r)), restrict_giant=True)
        d = g.degrees_float
        s = sum(d[u] / d[v] + d[v] / d[u] - 2.0 for u, v in g.edges.tolist())
        oracle_means.append(s / g.n)
    mean_bias = pooled.meta["mean_bias"]
    assert mean_bias == pytest.approx(float(np.mean(oracle_means)), abs=1e-10)
    # the infinite-n value is Var/mean of the Poisson(lam) limit = 1; at
    # n = 500 the giant-conditioning correction is a few percent
    assert 0.85 < mean_bias < 1.05


def test_bias_replica_error_names_the_replica(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "configuration", "n": 6,
                            "degree_seq": [1] * 6},
                       kind="nb", k=2, replicas=2, seed=3,
                       out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 3
    assert ("precondition violation: replica 0: graph invalid for 'nb' "
            "exploration" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, extra", [
    ("limit-mu", {"pmf": {"3": 0.5, "4": 0.5, "5": math.nan}}),
    ("limit-mu", {"pmf": {"3": 0.5, "4": 0.5, "5": -1e-12}}),
    ("noncommute", {"pmf": {"1": 0.75, "2": 0.25, "3": math.nan}}),
    ("bias", {"gen": {"model": "configuration", "n": 40,
                      "degree_pmf": {"3": 0.5, "4": 0.5, "5": math.nan}},
              "kind": "nb", "k": 2}),
])
def test_bad_pmf_entry_exits_2(tmp_path, capsys, experiment, extra):
    # json writes and reads NaN, so a config file can hold one
    cfg = write_config(tmp_path, "cfg.json", experiment=experiment,
                       n_samples=100, out=str(tmp_path / "out"), **extra)
    assert main([experiment, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error: bad " in err
    assert "pmf entries must be finite and nonnegative" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("pmf, cause", [
    ({"3.5": 1.0}, "entry '3.5': 1.0 needs an integer degree"),
    ({"3": "abc"}, "entry '3': 'abc' needs an integer degree"),
    ([0.5, 0.5], "expected an object of degree: probability entries"),
    # float() overflows on it, which exited 1 with a traceback
    ({"3": 10 ** 400}, "entry '3': 1000"),
])
def test_unparsable_pmf_exits_2(tmp_path, capsys, pmf, cause):
    cfg = write_config(tmp_path, "cfg.json", experiment="limit-mu", pmf=pmf,
                       n_samples=100, out=str(tmp_path / "out"))
    assert main(["limit-mu", "--config", cfg]) == 2
    assert f"config error: bad pmf: {cause}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gen, cause", [
    ({"model": "configuration", "n": 40, "degree_pmf": {"3": None}},
     "degree_pmf needs integer degrees and numeric probabilities"),
    ({"model": "erdos_renyi", "n": 40, "lam": "abc"},
     "erdos_renyi requires lam > 0, got 'abc'"),
    ({"model": "erdos_renyi", "lam": 2.0}, "missing keys ['n']"),
    (5, "expected an object, got 5"),
    ({"model": "erdos_renyi", "n": None, "lam": 2.0},
     "n must be an integer, got None"),
    ({"model": "configuration", "n": 40, "degree_pmf": {"3": 1.0},
      "seed": None}, "seed must be an integer, got None"),
    ({"model": "configuration", "n": 4, "degree_seq": "abc"},
     "degree_seq must be a list of degrees, got 'abc'"),
    ({"model": "configuration", "n": 4, "degree_seq": [1.5, 1.5, 1.5, 1.5]},
     "degree_seq entry 0: 1.5 is not a non-negative integer"),
    ({"model": "configuration", "n": 2, "degree_seq": [1.5, 0.5]},
     "degree_seq entry 0: 1.5 is not a non-negative integer"),
    ({"model": "erdos_renyi", "n": 40, "lam": math.nan},
     "erdos_renyi requires a finite lam, got nan"),
    ({"model": "erdos_renyi", "n": 40, "lam": math.inf},
     "erdos_renyi requires a finite lam, got inf"),
    ({"model": "erdos_renyi", "n": 40, "lam": 10 ** 400},
     "erdos_renyi requires a finite lam, got 1000"),
    ({"model": "erdos_renyi", "n": 40, "lam": True},
     "erdos_renyi requires lam > 0, got True"),
    ({"model": "erdos_renyi", "n": 40, "lam": 2.0, "sed": 5},
     "unknown keys ['sed']"),
], ids=["degree_pmf", "lam", "n", "not_an_object", "n_null", "seed_null",
        "degree_seq_not_a_list", "degree_seq_fractional_even_sum",
        "degree_seq_fractional_odd_sum", "lam_nan", "lam_inf",
        "lam_huge_int", "lam_bool", "unknown_key"])
def test_malformed_gen_spec_exits_2(tmp_path, capsys, gen, cause):
    cfg = write_config(tmp_path, "cfg.json", experiment="bias", gen=gen,
                       kind="bt", k=2, out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 2
    assert f"config error: bad gen spec: {cause}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["log_n(inf)", "log_n(nan)", "log_n(1e400)",
                               "mix10(inf)", "mix10(nan)"])
def test_non_finite_schedule_exits_2(tmp_path, capsys, k):
    # before, log_n(inf) overflowed with a traceback, log_n(nan) failed
    # naming no key and mix10(inf) ran with k_n = 10
    cfg = write_config(tmp_path, "cfg.json", experiment="joint",
                       gen={"model": "configuration", "n": 40,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", n_grid=[40], k=k, out=str(tmp_path / "out"))
    assert main(["joint", "--config", cfg]) == 2
    assert ("config error: k schedule parameter must be finite and positive"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["mix10(1)", "mix10(1.5)", "mix10(1e3)"])
def test_mix10_eps_of_one_or_more_exits_2(tmp_path, capsys, k):
    # every law is within TV 1 of stationarity, so the crossing was level 1
    # on any graph and the run went on at k = 10
    cfg = write_config(tmp_path, "cfg.json", experiment="joint",
                       gen={"model": "configuration", "n": 40,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", n_grid=[40], k=k, out=str(tmp_path / "out"))
    assert main(["joint", "--config", cfg]) == 2
    assert (f"config error: k schedule mix10(eps) needs eps < 1, got {k!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_bias_invalid_kind_exits_3(tmp_path, capsys):
    path3 = build_graph(3, [(0, 1), (1, 2)])
    save_edge_list(path3, tmp_path / "p3.edges")
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       graph_file=str(tmp_path / "p3.edges"), kind="nb",
                       k=2, out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "degree" in err     # message names the violated precondition


def test_config_for_another_experiment_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "nc.json", experiment="noncommute",
                       pmf={"1": 0.75, "2": 0.25}, n_samples=100,
                       out=str(tmp_path / "out"))
    assert main(["limit-mu", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "'noncommute', not 'limit-mu'" in err
    assert not (tmp_path / "out").exists()
    # a file without the key runs as the subcommand
    cfg = write_config(tmp_path, "mu.json", pmf={"1": 0.75, "2": 0.25},
                       n_samples=100, out=str(tmp_path / "out"))
    assert main(["limit-mu", "--config", cfg]) == 0
    m = EmpiricalMeasure.load_json(tmp_path / "out" / "mu_measure.json")
    assert m.meta["config"]["experiment"] == "limit-mu"


@pytest.mark.parametrize("experiment", ["joint", "sweep"])
def test_n_flag_on_a_grid_experiment_exits_2(tmp_path, capsys, experiment):
    # both take their sizes from n_grid, which --n would not change
    cfg = write_config(tmp_path, "g.json", experiment=experiment,
                       gen={"model": "configuration", "n": 100,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", k=2, k_max=2, n_grid=[100, 200],
                       out=str(tmp_path / "out"))
    assert main([experiment, "--config", cfg, "--n", "5000"]) == 2
    assert "n_grid" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


LAW_RUNS = {"limit-mu": {"pmf": {"3": 0.5, "4": 0.5}},
            "limit-mu-star": {"pmf": {"1": 0.75, "2": 0.25}},
            "noncommute": {"pmf": {"1": 0.75, "2": 0.25}}}


@pytest.mark.parametrize("flag, key", [
    (["--kind", "lazy"], {"kind": "lazy"}), (["--k", "5"], {"k": 5}),
    (["--delta", "0.3"], {"delta": 0.3}), (["--replicas", "7"], {"replicas": 7}),
    (["--restrict-giant"], {"restrict_giant": True}),
    (["--n", "500"], {"gen": {"model": "erdos_renyi", "n": 500, "lam": 2.0}})])
def test_graph_flag_on_a_limit_law_experiment_exits_2(tmp_path, capsys,
                                                      flag, key):
    # these experiments sample trees and read none of these flags, which
    # would otherwise reach summary.csv and the config lines as if used
    for experiment, extra in LAW_RUNS.items():
        out = tmp_path / experiment
        cfg = write_config(tmp_path, f"{experiment}.json", n_samples=200,
                           out=str(out), **extra, **key)
        assert main([experiment, "--config", cfg, *flag]) == 2
        err = capsys.readouterr().err
        assert f"{flag[0]} does not apply to {experiment}" in err
        assert not out.exists()
        # configs share keys across runs, so the config key stays accepted
        assert main([experiment, "--config", cfg]) == 0


# flags each experiment does not read, which would otherwise reach its
# outputs as if they had been used
UNREAD_FLAG_RUNS = {
    "generate": (["--k", "5"], {"gen": {"model": "configuration", "n": 40,
                                        "degree_pmf": {"3": 0.5, "4": 0.5}}}),
    "stationary": (["--k", "5", "--replicas", "7", "--kind", "nb"],
                   {"gen": {"model": "configuration", "n": 40,
                            "degree_pmf": {"3": 1.0}}}),
    "mixing": (["--replicas", "7"], {"gen": {"model": "configuration", "n": 40,
                                             "degree_pmf": {"3": 1.0}},
                                     "kind": "nb", "k_max": 3}),
    "sweep": (["--k", "5"], {"gen": {"model": "configuration", "n": 24,
                                     "degree_pmf": {"3": 1.0}},
                             "kind": "nb", "n_grid": [24], "k_max": 2}),
    "oracle-check": (["--seed", "9", "--out", "zz"], {}),
}


@pytest.mark.parametrize("experiment", sorted(UNREAD_FLAG_RUNS))
def test_unread_flag_exits_2(tmp_path, capsys, monkeypatch, experiment):
    monkeypatch.chdir(tmp_path)
    flags, extra = UNREAD_FLAG_RUNS[experiment]
    cfg = write_config(tmp_path, "cfg.json", out="out", **extra)
    assert main([experiment, "--config", cfg, *flags]) == 2
    assert (f"config error: {flags[0]} does not apply to {experiment}, "
            in capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    # without the flags the same config runs
    assert main([experiment, "--config", cfg]) == 0


def test_readme_flag_list_is_the_cli_table():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.search(r"\| Experiment \| Flags it reads \|\n\|[-|]+\|\n"
                     r"((?:\|.*\|\n)+)", text)[1]
    listed = {}
    for row in rows.splitlines():
        name, flags = (cell.strip() for cell in row.strip("|").split("|"))
        listed[name.strip("`")] = sorted(re.findall(r"`--([a-z-]+)`", flags))
    assert listed == {
        name: sorted(flag.replace("_", "-") for flag in reads)
        for name, (reads, _) in cli.FLAGS.items()}
    assert sorted(listed) == sorted(cli.EXPERIMENTS)


def _star_file(tmp_path) -> str:
    save_edge_list(build_graph(4, [(0, 1), (0, 2), (0, 3)]),
                   tmp_path / "star.edges")
    return str(tmp_path / "star.edges")


CM40 = {"model": "configuration", "n": 40, "degree_pmf": {"3": 0.5, "4": 0.5}}


@pytest.mark.parametrize("experiment, extra, flags, key", [
    # gen would be written into the outputs beside a graph it did not draw
    ("bias", {"gen": CM40, "kind": "bt", "k": 1}, [], "gen"),
    ("stationary", {"gen": CM40}, [], "gen"),
    ("mixing", {"gen": CM40, "k_max": 2}, [], "gen"),
    # a file is used as it is: the post-passes would be written, not run
    ("stationary", {"restrict_giant": True}, [], "restrict_giant"),
    ("stationary", {}, ["--restrict-giant"], "restrict_giant"),
    ("bias", {"erase": True, "kind": "bt", "k": 1}, [], "erase"),
    ("mixing", {"erase": True, "k_max": 2}, [], "erase"),
    # these draw from gen, and never read the file
    ("generate", {}, [], "graph_file"),
    ("generate", {"gen": CM40}, [], "graph_file"),
    ("joint", {"gen": CM40, "n_grid": [40], "kind": "bt", "k": 1}, [],
     "graph_file"),
    ("joint", {"n_grid": [40], "kind": "bt", "k": 1}, [], "graph_file"),
    ("sweep", {"gen": CM40, "n_grid": [40], "kind": "bt", "k_max": 2}, [],
     "graph_file"),
], ids=["bias-gen", "stationary-gen", "mixing-gen", "stationary-giant-key",
        "stationary-giant-flag", "bias-erase", "mixing-erase",
        "generate-file", "generate-file-gen", "joint-file-gen", "joint-file",
        "sweep-file-gen"])
def test_graph_file_is_the_one_graph_source(tmp_path, capsys, experiment,
                                            extra, flags, key):
    cfg = write_config(tmp_path, "cfg.json", graph_file=_star_file(tmp_path),
                       out=str(tmp_path / "out"), **extra)
    assert main([experiment, "--config", cfg, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "out").exists()


def test_graph_file_with_several_replicas_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", graph_file=_star_file(tmp_path),
                       kind="bt", k=1, replicas=2, out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 2
    assert "replicas > 1 requires a generated family" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("gen, post", [
    ({"model": "configuration", "n": 40,
      "degree_pmf": {"2": 0.3, "3": 0.4, "4": 0.3}}, {}),
    ({"model": "erdos_renyi", "n": 100, "lam": 3.0},
     {"restrict_giant": True}),
    ({"model": "configuration", "n": 60, "degree_pmf": {"3": 0.5, "4": 0.5}},
     {"erase": True}),
], ids=["cm", "er-giant", "cm-erased"])
def test_generate_meta_spec_redraws_the_graph(tmp_path, gen, post):
    cfg = write_config(tmp_path, "cfg.json", gen=gen, seed=3,
                       out=str(tmp_path / "out"), **post)
    assert main(["generate", "--config", cfg]) == 0
    meta = json.loads((tmp_path / "out" / "graph.meta.json").read_text())
    spec = GenSpec.from_dict(meta["spec"])
    assert spec.seed == mix_seed(3, 0)
    config = meta["config"]
    save_edge_list(realize(spec, erase=config["erase"],
                           restrict_giant=config["restrict_giant"]),
                   tmp_path / "redrawn.edges")
    assert ((tmp_path / "redrawn.edges").read_bytes()
            == (tmp_path / "out" / "graph.edges").read_bytes())


def test_bad_config_exits_2(tmp_path, capsys):
    assert main(["bias", "--config", str(tmp_path / "missing.json")]) == 2
    cfg = write_config(tmp_path, "bad.json", experiment="bias", k="sqrt_n(2)")
    assert main(["bias", "--config", cfg]) == 2
    cfg = write_config(tmp_path, "bad2.json", experiment="bias",
                       unknown_key=1)
    assert main(["bias", "--config", cfg]) == 2
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(["bias", "--config", str(tmp_path / "list.json")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["size_cap", "n_samples"])
def test_nonpositive_sampling_sizes_exit_2(tmp_path, capsys, key):
    # size_cap 0 used to accept one-vertex trees, whose size 1 is over it
    cfg = write_config(tmp_path, "cfg.json", experiment="limit-mu-star",
                       pmf={"0": 0.5, "1": 0.5}, out=str(tmp_path / "out"),
                       **{key: 0})
    assert main(["limit-mu-star", "--config", cfg]) == 2
    assert f"config error: {key} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_non_finite_measure_exits_4(tmp_path, capsys, monkeypatch):
    # no valid pmf yields a NaN bias, so the moment ratio is forced to NaN
    monkeypatch.setattr(OffspringLaw, "m2", property(lambda self: np.nan))
    cfg = write_config(tmp_path, "cfg.json", experiment="limit-mu",
                       pmf={"3": 0.5, "4": 0.5}, n_samples=10,
                       out=str(tmp_path / "out"))
    assert main(["limit-mu", "--config", cfg]) == 4
    assert ("numeric guard: measure values must be finite, got nan"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, extra", [
    ("limit-mu", {"pmf": {"0": 1.0}}),
    ("joint", {"gen": {"model": "configuration", "n": 40,
                       "degree_pmf": {"0": 1.0}}, "n_grid": [40]}),
])
def test_zero_mean_offspring_law_exits_2(tmp_path, capsys, experiment, extra):
    cfg = write_config(tmp_path, "cfg.json", experiment=experiment,
                       out=str(tmp_path / "out"), **extra)
    assert main([experiment, "--config", cfg]) == 2
    assert "offspring mean is zero" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    ("starts_cap", 0), ("starts_cap", -3), ("starts_cap", 2.5),
    ("bins", 0), ("bins", -1), ("bins", 4.5),
    ("k_max", -1), ("k_max", 2.0),
    ("replicas", 2.5), ("n_samples", 1e5), ("size_cap", "10"),
    ("window_N", 1.5), ("k", [-2]), ("k", [1.5]), ("k", -1), ("k", 2.5),
    ("n_grid", [40.5]), ("n_grid", 40), ("n_grid", ["abc"]), ("n_grid", [0]),
    ("eps_list", 0.1), ("eps_list", ["a"]), ("delta", "x"),
    # json writes and reads NaN and Infinity; an integer too large for a
    # float is refused like an infinity
    ("delta", math.nan), ("delta", math.inf),
    pytest.param("delta", 10 ** 400, id="delta-huge_int"),
    ("eps_list", [math.nan, math.inf]),
    pytest.param("eps_list", [10 ** 400], id="eps_list-huge_int"),
    # a crossing of eps >= 1 is level 1 on any graph, and eps <= 0 is never
    # reached
    ("eps_list", [0.01, 1.0]), ("eps_list", [1.5]), ("eps_list", [0]),
    ("eps_list", [-0.1]),
    # PCG64 refuses a negative seed, and a non-integer one failed with a
    # traceback
    ("seed", -1), ("seed", 1.5), ("seed", "7"),
    # an integer graph_file was opened as a file descriptor, and an integer
    # out failed with a traceback
    ("graph_file", 5), ("out", 5),
])
def test_bad_config_values_exit_2(tmp_path, capsys, key, value):
    fields = dict(gen={"model": "configuration", "n": 40,
                       "degree_pmf": {"3": 0.5, "4": 0.5}},
                  kind="nb", n_grid=[40], out=str(tmp_path / "out"))
    fields[key] = value
    cfg = write_config(tmp_path, "cfg.json", experiment="joint", **fields)
    assert main(["joint", "--config", cfg]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment", ["bias", "stationary"])
@pytest.mark.parametrize("case, detail", [
    ("missing", "No such file"), ("directory", "Is a directory"),
    ("bad_token", "not an integer"), ("binary", "can't decode"),
])
def test_unreadable_graph_file_exits_2(tmp_path, capsys, experiment, case,
                                       detail):
    path = tmp_path / f"{case}.edges"
    if case == "directory":
        path.mkdir()
    elif case == "bad_token":
        path.write_text("3 2\n0 1\n1 x\n")
    elif case == "binary":
        path.write_bytes(b"3 1\n0 \xff\n")
    cfg = write_config(tmp_path, "cfg.json", experiment=experiment,
                       graph_file=str(path), kind="bt", k=1,
                       out=str(tmp_path / "out"))
    assert main([experiment, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot read graph file {path}: " in err
    assert detail in err
    assert not (tmp_path / "out").exists()


def test_misspelled_scope_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "configuration", "n": 40,
                            "degree_pmf": {"3": 1.0}},
                       kind="nb", k=2, scope="gloabl",
                       out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 2
    assert "scope" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_joint_nb_mix10_honours_starts_cap(tmp_path):
    # the nb chain of a 1500-vertex graph has over 4096 half-edge states, so
    # the profile behind mix10 must subsample its starts at every size
    cfg = write_config(tmp_path, "j.json", experiment="joint",
                       gen={"model": "configuration", "n": 1500,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", k="mix10(0.01)", n_grid=[1500],
                       starts_cap=48, seed=3, out=str(tmp_path / "out"))
    assert main(["joint", "--config", cfg]) == 0
    row = (tmp_path / "out" / "joint.csv").read_text().splitlines()[2]
    n, k_n = row.split(",")[:2]
    assert n == "1500" and int(k_n) % 10 == 0 and int(k_n) > 0


def test_nb_mixing_over_the_exact_state_limit_needs_starts_cap(tmp_path,
                                                              capsys):
    # CM {3: .5, 4: .5} at n = 1500 has over 5000 half-edge states, more
    # start states than an exact (uncapped) profile may take
    cfg = write_config(tmp_path, "m.json", experiment="mixing",
                       gen={"model": "configuration", "n": 1500,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", k_max=3, seed=99, out=str(tmp_path / "out"))
    assert main(["mixing", "--config", cfg]) == 2
    err = capsys.readouterr().err
    states = int(re.search(r"(\d+) start states exceeds the exact limit "
                           rf"{MAX_EXACT_STATES}; pass starts_cap", err)[1])
    assert states > MAX_EXACT_STATES
    assert not (tmp_path / "out").exists()


def test_mix10_without_crossing_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, "j.json", experiment="joint",
                       gen={"model": "configuration", "n": 60,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="bt", erase=True, k="mix10(1e-12)", k_max=3,
                       n_grid=[60], seed=3, out=str(tmp_path / "out"))
    assert main(["joint", "--config", cfg]) == 3
    assert "never reached 1e-12 within k_max=3" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, extra, starts", [
    ("mixing", {}, 4000),       # the projected vertex curve adds 2000 rows
    ("joint", {"k": "mix10(0.01)", "n_grid": [8000]}, 2000),
])
def test_over_budget_mixing_batch_exits_4(tmp_path, capsys, experiment, extra,
                                          starts):
    # 2000 starts x the 2m half-edge states of the nb chain already need
    # about 450 MB; the batch is refused before it is allocated
    cfg = write_config(tmp_path, "m.json", experiment=experiment,
                       gen={"model": "configuration", "n": 8000,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", starts_cap=2000, k_max=5, seed=3,
                       out=str(tmp_path / "out"), **extra)
    assert main([experiment, "--config", cfg]) == 4
    err = capsys.readouterr().err
    rows, states, size = map(int, re.match(
        r"numeric guard: mixing batch of (\d+) starts x (\d+) states needs "
        r"(\d+) bytes", err).groups())
    assert rows == starts and size == rows * states * 8 > MAX_DENSE_BYTES
    assert not (tmp_path / "out").exists()


_CM34 = {"model": "configuration", "degree_pmf": {"3": 0.5, "4": 0.5}}


@pytest.mark.parametrize("experiment, config, line", [
    ("limit-mu", {"pmf": {"0": 1.0}},
     "moment ratio E[D^2]/E[D] undefined: offspring mean is zero"),
    ("joint", {"gen": {"model": "configuration", "n": 40,
                       "degree_pmf": {"0": 1.0}}, "n_grid": [40]},
     "moment ratio E[D^2]/E[D] undefined: offspring mean is zero"),
    ("sweep", {"gen": {"model": "erdos_renyi", "n": 40, "lam": 4},
               "n_grid": [3]},
     "erdos_renyi needs 0 < lam < n, got lam=4.0, n=3"),
    ("generate", {"gen": {"model": "erdos_renyi", "n": 1, "lam": 0.5}},
     "erdos_renyi needs n >= 2, got 1"),
    ("generate", {"gen": dict(_CM34, n=0)}, "vertex count must be >= 1, got 0"),
    ("generate", {"gen": dict(_CM34, n=-1)},
     "negative dimensions are not allowed"),
    ("mixing", {"gen": {"model": "erdos_renyi", "n": 6000, "lam": 8},
                "kind": "lazy", "restrict_giant": True},
     "5997 start states exceeds the exact limit 4096; pass starts_cap for a "
     "subsampled profile"),
], ids=["limit-mu-zero-mean", "joint-zero-mean", "sweep-er-lam-over-n",
        "generate-er-n1", "generate-cm-n0", "generate-cm-negative-n",
        "mixing-over-exact-limit"])
def test_library_refusals_of_config_values_exit_2(tmp_path, capsys,
                                                  experiment, config, line):
    # the library refuses these values with a ValueError; main names them as
    # config errors without a catch-all over every ValueError
    cfg = write_config(tmp_path, "cfg.json", experiment=experiment,
                       out=str(tmp_path / "out"), **config)
    assert main([experiment, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {line}\n"
    assert not (tmp_path / "out").exists()


def test_failed_run_leaves_none_of_its_files(tmp_path, capsys):
    # the grid point n = 40 is written before the mixing schedule at n = 400
    # finds no crossing within k_max
    cfg = write_config(tmp_path, "j.json", experiment="joint",
                       gen={"model": "configuration", "n": 40,
                            "degree_pmf": {"1": 0.3, "3": 0.7}},
                       erase=True, restrict_giant=True, kind="bt",
                       k="mix10(0.01)", k_max=200, n_grid=[40, 400], seed=1,
                       out=str(tmp_path / "out"))
    assert main(["joint", "--config", cfg]) == 3
    assert ("precondition violation: mixing schedule unresolved: TV never "
            "reached 0.01 within k_max=200" in capsys.readouterr().err)
    assert snapshot(tmp_path / "out") == {}


def test_bug_exits_with_its_traceback_and_leaves_no_files(tmp_path,
                                                         monkeypatch):
    # a ValueError from inside a run is a bug, not a config error
    def broken(*args):
        raise ValueError("broken")

    monkeypatch.setattr(cli, "_write_summary", broken)
    cfg = write_config(tmp_path, "mu.json", experiment="limit-mu",
                       pmf={"3": 0.5, "4": 0.5}, n_samples=10,
                       out=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="broken"):
        main(["limit-mu", "--config", cfg])
    assert snapshot(tmp_path / "out") == {}


def test_oracle_mismatch_exits_4(monkeypatch, capsys):
    def mismatch(g, k, kind):
        raise ArithmeticError("definitional and symmetrised averages disagree")

    monkeypatch.setattr(cli.oracle, "oracle_avg_bias", mismatch)
    assert main(["oracle-check"]) == 4
    assert ("numeric guard: definitional and symmetrised averages disagree"
            in capsys.readouterr().err)


@pytest.mark.parametrize("delta", [1.5, 0])
def test_stationary_delta_outside_unit_interval_exits_2(tmp_path, capsys,
                                                        delta):
    # stationary reports the lazy residual at any kind; it wrote its measure
    # before the walk refused the laziness
    cfg = write_config(tmp_path, "s.json", experiment="stationary",
                       gen=dict(_CM34, n=40), delta=delta,
                       out=str(tmp_path / "out"))
    assert main(["stationary", "--config", cfg]) == 2
    assert (f"config error: laziness delta must lie in (0, 1), got {delta}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("experiment, either", [
    ("bias", True), ("stationary", True), ("mixing", True),
    ("generate", False), ("sweep", False), ("joint", False),
])
def test_missing_graph_source_names_what_would_do(tmp_path, capsys,
                                                  experiment, either):
    cfg = write_config(tmp_path, "cfg.json", experiment=experiment,
                       n_grid=[40], out=str(tmp_path / "out"))
    assert main([experiment, "--config", cfg]) == 2
    line = "config error: this experiment needs a 'gen' model spec"
    if either:
        line += " or a 'graph_file'"
    assert capsys.readouterr().err == line + "\n"


def test_unwritable_out_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    cfg = write_config(tmp_path, "mu.json", experiment="limit-mu",
                       pmf={"3": 0.5, "4": 0.5}, n_samples=10, out=str(out))
    assert main(["limit-mu", "--config", cfg]) == 2
    assert (f"config error: cannot write {out / 'mu_measure.json'}: "
            in capsys.readouterr().err)


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "erdos_renyi", "n": 150, "lam": 4.0},
                       restrict_giant=True, kind="lazy", k=3, seed=5,
                       replicas=2, out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 0
    first = snapshot(tmp_path / "out")
    assert main(["bias", "--config", cfg]) == 0
    assert snapshot(tmp_path / "out") == first
    assert (tmp_path / "out" / "bias_measure_annealed.json").exists()


def test_generate_round_trip(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", experiment="generate",
                       gen={"model": "erdos_renyi", "n": 30, "lam": 3.0},
                       seed=9, out=str(tmp_path / "out"))
    assert main(["generate", "--config", cfg]) == 0
    from friendbias import load_edge_list
    g = load_edge_list(tmp_path / "out" / "graph.edges")
    meta = json.loads((tmp_path / "out" / "graph.meta.json").read_text())
    assert g.n == 30 and meta["rng"] == "numpy-pcg64"


def test_stationary_and_mixing_outputs(tmp_path):
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    save_edge_list(k4, tmp_path / "k4.edges")
    cfg = write_config(tmp_path, "s.json", experiment="stationary",
                       graph_file=str(tmp_path / "k4.edges"),
                       out=str(tmp_path / "s_out"))
    assert main(["stationary", "--config", cfg]) == 0
    diag = json.loads((tmp_path / "s_out" / "diagnostics.json").read_text())
    assert abs(diag["stationary_weighted_mean_bias"]) < 1e-12
    assert diag["residual_bt"] < 1e-12

    cfg = write_config(tmp_path, "m.json", experiment="mixing",
                       graph_file=str(tmp_path / "k4.edges"), kind="bt",
                       k_max=10, out=str(tmp_path / "m_out"))
    assert main(["mixing", "--config", cfg]) == 0
    lines = (tmp_path / "m_out" / "mixing.csv").read_text().splitlines()
    assert lines[1] == "k,D,kind,n,seed"
    assert float(lines[2].split(",")[1]) == pytest.approx(0.25)


def test_mixing_csv_round(tmp_path):
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    save_edge_list(k4, tmp_path / "k4.edges")
    cfg = write_config(tmp_path, "m.json", experiment="mixing",
                       graph_file=str(tmp_path / "k4.edges"), kind="bt",
                       k_max=3, seed=7, out=str(tmp_path / "out"))
    assert main(["mixing", "--config", cfg]) == 0
    lines = (tmp_path / "out" / "mixing.csv").read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "k,D,kind,n,seed"
    assert len(lines) == 5
    assert lines[2].split(",")[2:] == ["bt", "4", "7"]


def test_joint_regular_family_levy_zero(tmp_path):
    cfg = write_config(tmp_path, "j.json", experiment="joint",
                       gen={"model": "configuration", "n": 24,
                            "degree_pmf": {"3": 1.0}},
                       kind="nb", k="log_n(1)", replicas=2, seed=17,
                       n_grid=[24, 48], out=str(tmp_path / "out"))
    assert main(["joint", "--config", cfg]) == 0
    rows = (tmp_path / "out" / "joint.csv").read_text().splitlines()[2:]
    for row in rows:
        n, k_n, levy, w1, gap = row.split(",")
        assert float(levy) == 0.0
        assert float(gap) == 0.0


def test_noncommute_report(tmp_path):
    cfg = write_config(tmp_path, "nc.json", experiment="noncommute",
                       pmf={"1": 0.75, "2": 0.25}, n_samples=2000, seed=12,
                       out=str(tmp_path / "out"))
    assert main(["noncommute", "--config", cfg]) == 0
    report = json.loads((tmp_path / "out" / "noncommute_report.json").read_text())
    assert set(report) >= {"mu", "mu_star", "mean_mu", "mean_mu_star",
                           "se_mu", "se_mu_star", "levy_mu_vs_mu_star"}
    first = (tmp_path / "out" / "noncommute_report.json").read_bytes()
    assert main(["noncommute", "--config", cfg]) == 0
    assert (tmp_path / "out" / "noncommute_report.json").read_bytes() == first


def test_noncommute_rejects_supercritical(tmp_path):
    cfg = write_config(tmp_path, "nc.json", experiment="noncommute",
                       pmf={"3": 1.0}, n_samples=100, seed=1,
                       out=str(tmp_path / "out"))
    assert main(["noncommute", "--config", cfg]) == 3


def test_limit_mu_outputs(tmp_path):
    cfg = write_config(tmp_path, "mu.json", experiment="limit-mu",
                       pmf={"3": 0.5, "4": 0.5}, n_samples=5000, seed=3,
                       out=str(tmp_path / "out"))
    assert main(["limit-mu", "--config", cfg]) == 0
    exact = EmpiricalMeasure.load_json(tmp_path / "out" / "mu_exact.json")
    assert np.allclose(exact.values, [25 / 7 - 4, 25 / 7 - 3])
    cfg = write_config(tmp_path, "ms.json", experiment="limit-mu-star",
                       pmf={"1": 0.75, "2": 0.25}, n_samples=2000, seed=3,
                       out=str(tmp_path / "out2"))
    assert main(["limit-mu-star", "--config", cfg]) == 0
    m = EmpiricalMeasure.load_json(tmp_path / "out2" / "mu_star_measure.json")
    assert m.meta["rejections"] == 0


def _summary(out: Path) -> tuple[str, float]:
    _, header, row = (out / "summary.csv").read_text().splitlines()
    return header.split(",")[-1], float(row.split(",")[-1])


def test_summary_reports_the_configured_distance(tmp_path):
    gen = {"model": "configuration", "n": 200,
           "degree_pmf": {"3": 0.5, "4": 0.5}}
    cfg = write_config(tmp_path, "b.json", experiment="bias", gen=gen,
                       kind="nb", k=2, seed=3, distance="ks",
                       out=str(tmp_path / "b"))
    assert main(["bias", "--config", cfg]) == 0
    m = EmpiricalMeasure.load_json(tmp_path / "b" / "bias_measure.json")
    g = realize(replace(GenSpec.from_dict(gen), seed=mix_seed(3, 0)))
    limit = stationary_bias(g)
    column, value = _summary(tmp_path / "b")
    assert column == "ks_to_limit"
    assert value == ks_distance(m, limit) != levy_distance(m, limit)

    cfg = write_config(tmp_path, "mu.json", experiment="limit-mu",
                       pmf={"3": 0.5, "4": 0.5}, n_samples=500, seed=3,
                       distance="ks", out=str(tmp_path / "mu"))
    assert main(["limit-mu", "--config", cfg]) == 0
    m = EmpiricalMeasure.load_json(tmp_path / "mu" / "mu_measure.json")
    exact = exact_mu(OffspringLaw.from_dict({3: 0.5, 4: 0.5}))
    column, value = _summary(tmp_path / "mu")
    assert column == "ks_to_limit"
    assert value == ks_distance(m, exact) != levy_distance(m, exact)


def test_sweep_outputs(tmp_path):
    cfg = write_config(tmp_path, "sw.json", experiment="sweep",
                       gen={"model": "configuration", "n": 20,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       erase=True, kind="lazy", k_max=6, seed=41,
                       n_grid=[20, 40], window_N=2,
                       out=str(tmp_path / "out"))
    assert main(["sweep", "--config", cfg]) == 0
    psi = json.loads((tmp_path / "out" / "psi.json").read_text())
    assert psi["window_N"] == 2
    assert 0.0 <= psi["psi_window"] <= 1.0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[1] == "n,k,kind,levy,ks,w1"
    assert len(lines) == 2 + 2 * 6


def test_sweep_regular_family_psi_zero(tmp_path):
    # all-degree-3 multigraphs stay exactly regular, so every window is 0
    cfg = write_config(tmp_path, "sw.json", experiment="sweep",
                       gen={"model": "configuration", "n": 24,
                            "degree_pmf": {"3": 1.0}},
                       kind="nb", k_max=4, seed=4, n_grid=[24, 48],
                       window_N=1, out=str(tmp_path / "out"))
    assert main(["sweep", "--config", cfg]) == 0
    psi = json.loads((tmp_path / "out" / "psi.json").read_text())
    assert psi["psi_window"] == 0.0


def test_sweep_empty_window_exits_2(tmp_path):
    for window_N, k_max in ((10, 4), (100, 200)):
        cfg = write_config(tmp_path, "sw.json", experiment="sweep",
                           gen={"model": "configuration", "n": 24,
                                "degree_pmf": {"3": 1.0}},
                           kind="nb", k_max=k_max, seed=4, n_grid=[24],
                           window_N=window_N, out=str(tmp_path / "out"))
        assert main(["sweep", "--config", cfg]) == 2
        assert not (tmp_path / "out" / "psi.json").exists()


def test_oracle_check_passes(capsys):
    assert main(["oracle-check"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "erdos_renyi", "n": 60, "lam": 3.0},
                       restrict_giant=True, kind="bt", k=1, seed=1,
                       out=str(tmp_path / "a"))
    assert main(["bias", "--config", cfg, "--k", "2", "--kind", "lazy",
                 "--out", str(tmp_path / "b"), "--n", "80"]) == 0
    data = json.loads((tmp_path / "b" / "bias_measure.json").read_text())
    assert data["meta"]["config"]["k"] == 2
    assert data["meta"]["config"]["kind"] == "lazy"
    assert data["meta"]["config"]["gen"]["n"] == 80


def test_bias_reports_nonneg_fraction_er(tmp_path):
    # level-1 run on a large ER giant: the fraction of vertices with
    # nonnegative bias is reported (no fixed target, only well-formedness)
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "erdos_renyi", "n": 2000, "lam": 4.0},
                       restrict_giant=True, kind="bt", k=1, seed=6,
                       out=str(tmp_path / "out"))
    assert main(["bias", "--config", cfg]) == 0
    row = (tmp_path / "out" / "summary.csv").read_text().splitlines()[2].split(",")
    mean, frac = float(row[5]), float(row[6])
    assert mean >= -1e-12
    assert 0.0 <= frac <= 1.0 + 1e-12
    # the paradox is significant on this family: over half the vertices
    assert frac > 0.5


def test_restrict_giant_flag(tmp_path):
    cfg = write_config(tmp_path, "cfg.json", experiment="bias",
                       gen={"model": "erdos_renyi", "n": 120, "lam": 2.5},
                       kind="bt", k=1, seed=2, out=str(tmp_path / "out"))
    # raw low-density graph has isolated vertices, so plain bt fails ...
    assert main(["bias", "--config", cfg]) == 3
    # ... while the flag restricts the run to the giant component
    assert main(["bias", "--config", cfg, "--restrict-giant"]) == 0
    data = json.loads((tmp_path / "out" / "bias_measure.json").read_text())
    assert data["meta"]["config"]["restrict_giant"] is True
    assert data["meta"]["n"] < 120


# float reprs change form at these: shortest digits, exponent notation
# below 1e-4 and from 1e16 on, and the largest magnitudes
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-4, math.nextafter(1e-4, 0.0),
               math.nextafter(1e-4, 1.0), 1e16, math.nextafter(1e16, 0.0),
               math.nextafter(1e16, math.inf), -1e16, 1.7976931348623157e308,
               -1.7976931348623157e308, 2.2250738585072014e-308, 0.1, 1.0]

json_leaves = st.one_of(st.none(), st.booleans(), st.integers(),
                        st.text(max_size=4),
                        st.floats(allow_nan=False, allow_infinity=False))
json_metas = st.dictionaries(
    st.text(max_size=4),
    st.recursive(json_leaves,
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=6),
    max_size=4)


@st.composite
def measures_to_write(draw):
    size = draw(st.integers(1, 12))
    # a measure's atoms are strictly increasing; unique=True also keeps
    # -0.0 and 0.0 from both being drawn, as they compare equal
    values = sorted(draw(st.lists(
        st.sampled_from(EDGE_FLOATS)
        | st.floats(allow_nan=False, allow_infinity=False),
        min_size=size, max_size=size, unique=True)))
    weighting = draw(st.sampled_from(["equal", "distinct", "zeros"]))
    if weighting == "equal":
        weights = np.full(size, 1.0 / size)
    else:
        counts = np.array(draw(st.lists(st.integers(1, 10 ** 6), min_size=size,
                                        max_size=size, unique=True)), float)
        weights = counts / counts.sum()
        if weighting == "zeros":
            # mass-free atoms keep the sign of their zero weight
            free = draw(st.lists(st.sampled_from([0.0, -0.0]),
                                 max_size=size - 1))
            weights[:len(free)] = free
            weights[len(free):] /= weights[len(free):].sum()
    return EmpiricalMeasure(np.array(values), weights, draw(json_metas))


def as_dicts(payload):
    """The payload with its measures, top-level or one deep, as to_dict()."""
    if isinstance(payload, EmpiricalMeasure):
        return payload.to_dict()
    return {key: value.to_dict() if isinstance(value, EmpiricalMeasure)
            else value for key, value in payload.items()}


@settings(max_examples=300, deadline=None)
@given(payload=st.one_of(
           measures_to_write(),
           st.fixed_dictionaries({"mu": measures_to_write(),
                                  "mu_star": measures_to_write()},
                                 optional={"config": json_metas,
                                           "levy": st.floats(0.0, 1.0)})),
       chunk=st.integers(1, 5), split=st.integers(1, 8))
def test_write_json_matches_json_dumps(tmp_path_factory, payload, chunk,
                                       split):
    # a measure of `split` atoms or more is formatted on two processes
    path = tmp_path_factory.mktemp("json") / "payload.json"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "ATOM_CHUNK", chunk)
        mp.setattr(cli, "SPLIT_ATOMS", split)
        cli._write_json(path, payload)
    want = json.dumps(as_dicts(payload), sort_keys=True, indent=1) + "\n"
    assert path.read_text() == want


def test_write_json_streams_the_atoms(tmp_path):
    """A 300k-atom measure is written in pieces whose size does not grow
    with the measure: under 1 MB here, where the to_dict and json.dumps
    path peaks at over 100 MB."""
    rng = np.random.default_rng(3)
    m = EmpiricalMeasure.from_values(rng.normal(size=300_000),
                                     meta={"n": 300_000})
    tracemalloc.start()
    try:
        cli._write_json(tmp_path / "m.json", m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def _split_every_measure(mp) -> list:
    """Format every measure on two processes, whatever the CPUs of the
    machine; returns the list of the pids forked from here on."""
    pids = []

    def fork():
        pid = fork_once()
        pids.append(pid)
        return pid

    fork_once = os.fork
    mp.setattr(cli, "SPLIT_ATOMS", 1)
    mp.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    mp.setattr(cli.os, "fork", fork)
    return pids


@pytest.fixture
def forks(monkeypatch):
    yield _split_every_measure(monkeypatch)
    with pytest.raises(ChildProcessError):      # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _joint_config(tmp_path) -> str:
    return write_config(tmp_path, "joint.json", experiment="joint",
                        gen={"model": "configuration", "n": 60,
                             "degree_pmf": {"3": 0.5, "4": 0.5}},
                        kind="nb", k="log_n(1)", replicas=2, seed=4,
                        n_grid=[60, 500], out="out")


def test_joint_files_do_not_depend_on_the_split(tmp_path, monkeypatch):
    cfg = _joint_config(tmp_path)
    files = []
    for split in (False, True):
        with monkeypatch.context() as mp:
            run = tmp_path / f"split-{split}"
            run.mkdir()
            mp.chdir(run)
            pids = _split_every_measure(mp) if split else []
            assert main(["joint", "--config", cfg]) == 0
        files.append(snapshot(run / "out"))
    assert len(pids) == 2           # one fork per measure file
    assert sorted(map(str, files[0])) == [
        "joint.csv", "joint_measure_n500.json", "joint_measure_n60.json"]
    assert files[1] == files[0]


def _halves(monkeypatch, breaks: str | None) -> None:
    """Make the atom formatting of `breaks`, "child" or "parent", raise. A
    child that does not break sleeps a minute first, so that only a kill
    ends it early."""
    parent, span = os.getpid(), cli._atom_span

    def half(*args):
        me = "parent" if os.getpid() == parent else "child"
        if me == breaks:
            raise ValueError(f"{me} half broke")
        if me == "child":
            time.sleep(60)
        return span(*args)

    monkeypatch.setattr(cli, "_atom_span", half)


def test_failed_child_fails_the_run_and_leaves_no_files(tmp_path, monkeypatch,
                                                        capfd, forks):
    _halves(monkeypatch, "child")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError, match="formatting atoms"):
        main(["joint", "--config", _joint_config(tmp_path)])
    assert len(forks) == 1
    assert snapshot(tmp_path / "out") == {}
    assert "ValueError: child half broke" in capfd.readouterr().err


@pytest.mark.parametrize("how", ["parent half raises", "text closed"])
def test_unfinished_write_kills_and_reaps_the_child(tmp_path, monkeypatch,
                                                    forks, how):
    monkeypatch.chdir(tmp_path)
    start = time.monotonic()
    if how == "text closed":
        _halves(monkeypatch, None)
        text = cli._atom_text(EmpiricalMeasure.from_values(np.arange(10.0)),
                              '{\n "atoms": ')
        next(text)
        next(text)                  # the fork, then the parent's first piece
        text.close()
    else:
        _halves(monkeypatch, "parent")
        with pytest.raises(ValueError, match="parent half broke"):
            main(["joint", "--config", _joint_config(tmp_path)])
        assert snapshot(tmp_path / "out") == {}
    assert time.monotonic() - start < 30
    assert len(forks) == 1


@pytest.mark.parametrize("experiment, extra", [
    ("joint", {"k": 3, "n_grid": [60, 120]}),
    ("bias", {"k": 3}),
])
def test_no_replica_graph_outlives_its_measure(tmp_path, monkeypatch,
                                               experiment, extra):
    """While a replica graph is realised, and while the replicas' measures
    are pooled, every earlier replica graph is already freed."""
    from friendbias import generators
    realised = []

    def alive():
        return [r for r in realised if r() is not None]

    def tracked_realize(*args, **kwargs):
        assert alive() == []
        g = realize(*args, **kwargs)
        realised.append(weakref.ref(g))
        return g

    def tracked_mixture(parts, meta=None):
        assert alive() == []
        return mixture(parts, meta)

    mixture = EmpiricalMeasure.mixture
    monkeypatch.setattr(generators, "realize", tracked_realize)
    monkeypatch.setattr(EmpiricalMeasure, "mixture",
                        staticmethod(tracked_mixture))
    cfg = write_config(tmp_path, "cfg.json", experiment=experiment,
                       gen={"model": "configuration", "n": 60,
                            "degree_pmf": {"3": 0.5, "4": 0.5}},
                       kind="nb", replicas=3, seed=4,
                       out=str(tmp_path / "out"), **extra)
    assert main([experiment, "--config", cfg]) == 0
    assert len(realised) == 3 * len(extra.get("n_grid", [60]))
