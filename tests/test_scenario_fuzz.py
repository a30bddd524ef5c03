"""Tests for ``repro.scenario`` — the constrained-random differential fuzzer.

Four layers, mirroring the package:

* **generation** — same seed, same scenarios, byte for byte; random
  access (``draw(i)`` is a pure function of seed and index); kind
  filters and constraint satisfaction.
* **shrinking** — deterministic greedy ddmin over typed fields: the
  same failing scenario always yields the byte-identical minimal
  reproducer, constraint-invalid candidates are skipped, and the
  minimum is minimal in the ordering the space declares.
* **corpus** — a known-good seed runs green through the *real* oracle
  (every kind's differential arms + property checks).
* **seeded bug** — a deliberately broken fast-path governor (skewed
  burst completion times) is caught by a campaign, shrunk to the
  minimal burst scenario, serialized, and replayed from disk; removing
  the bug makes the reproducer pass again.
"""

import json

import pytest
from unittest import mock

from repro.mem.address import PAGE_SIZE_2M, PAGE_SIZE_4K
from repro.scenario import (
    FuzzConfig,
    Scenario,
    ScenarioGenerator,
    ScenarioSpaceError,
    kind_names,
    load_reproducer,
    replay,
    resolve_kinds,
    run_fuzz,
    run_scenario,
    shrink,
    write_reproducer,
)


class TestGeneratorDeterminism:
    def test_same_seed_draws_identical_scenarios(self):
        first = [s.canonical() for s in ScenarioGenerator(7).scenarios(10)]
        second = [s.canonical() for s in ScenarioGenerator(7).scenarios(10)]
        assert first == second

    def test_draw_is_random_access(self):
        # draw(i) is a pure function of (seed, index): drawing out of
        # order, or twice, changes nothing.
        generator = ScenarioGenerator(3)
        sequential = [s.digest() for s in generator.scenarios(5)]
        assert generator.draw(4).digest() == sequential[4]
        assert generator.draw(0).digest() == sequential[0]

    def test_different_seeds_draw_different_scenarios(self):
        a = [s.digest() for s in ScenarioGenerator(0).scenarios(10)]
        b = [s.digest() for s in ScenarioGenerator(1).scenarios(10)]
        assert a != b

    def test_draws_satisfy_kind_specs(self):
        for scenario in ScenarioGenerator(11).scenarios(20):
            scenario.spec().validate(scenario.fields)  # raises on violation

    def test_kind_filter_restricts_draws(self):
        generator = ScenarioGenerator(0, ["capacity"])
        assert all(s.kind == "capacity" for s in generator.scenarios(5))

    def test_resolve_kinds(self):
        assert resolve_kinds(None) == kind_names()
        assert resolve_kinds("fleet,serve") == ["fleet", "serve"]
        with pytest.raises(ScenarioSpaceError):
            resolve_kinds("fleet,bogus")


def fleet_scenario(**overrides):
    fields = {
        "nodes": 3,
        "requests": 60,
        "load": 1.3,
        "policy": "affinity",
        "traffic_seed": 4,
        "fault_plan": "none",
        "autoscale_standby": 1,
        "drain_node": "node1",
        "drain_at_ms": 4,
    }
    fields.update(overrides)
    return Scenario(kind="fleet", fields=fields)


class TestShrinkDeterminism:
    def test_same_failure_shrinks_to_byte_identical_reproducer(self):
        # Synthetic probe: "fails" whenever load and requests are both
        # elevated — the shrinker must find the frontier, not the floor.
        def probe(scenario):
            if scenario.fields["load"] >= 0.9 and scenario.fields["requests"] >= 40:
                return ["synthetic: load x requests too high"]
            return []

        results = [shrink(fleet_scenario(), probe) for _ in range(2)]
        payloads = [
            json.dumps(r.to_reproducer(seed=9, index=2), sort_keys=True)
            for r in results
        ]
        assert payloads[0] == payloads[1]
        minimal = results[0].scenario.fields
        # Failure-relevant fields shrink to the simplest still-failing
        # value; everything else shrinks all the way to the front.
        assert minimal["load"] == 0.9 and minimal["requests"] == 40
        assert minimal["nodes"] == 2 and minimal["policy"] == "first-fit"
        assert minimal["autoscale_standby"] == 0
        assert minimal["drain_node"] == "none"
        assert results[0].steps > 0 and results[0].probes > 0

    def test_shrink_respects_kind_constraints(self):
        # rogue-guest/mixed plans require window_ms == 12; a probe keyed
        # on the plan must leave the window un-shrunk (candidates with a
        # smaller window violate the constraint and are skipped).
        scenario = Scenario(kind="platform", fields={
            "accels": ("AES", "GRN"),
            "working_set_mb": 8,
            "window_ms": 12,
            "time_slice_us": 50,
            "page_size": PAGE_SIZE_4K,
            "conflict_mitigation": False,
            "speculative_region_opt": False,
            "fault_plan": "mixed",
        })

        def probe(candidate):
            return ["plan still mixed"] if candidate.fields["fault_plan"] == "mixed" else []

        result = shrink(scenario, probe)
        minimal = result.scenario.fields
        assert minimal["fault_plan"] == "mixed"
        assert minimal["window_ms"] == 12          # pinned by the constraint
        assert minimal["accels"] == ("LL",)        # subset: dropped + simplified
        assert minimal["working_set_mb"] == 2
        assert minimal["time_slice_us"] == 10_000
        assert minimal["page_size"] == PAGE_SIZE_2M
        assert minimal["conflict_mitigation"] is True

    def test_shrink_rejects_passing_scenario(self):
        with pytest.raises(ValueError):
            shrink(fleet_scenario(), lambda scenario: [])


class TestReproducerFiles:
    def test_round_trip_and_stable_bytes(self, tmp_path):
        result = shrink(
            fleet_scenario(),
            lambda s: ["always"],
        )
        payload = result.to_reproducer(seed=5, index=1)
        path_a = write_reproducer(payload, tmp_path / "a.json")
        path_b = write_reproducer(payload, tmp_path / "b" / "b.json")
        assert path_a.read_bytes() == path_b.read_bytes()
        loaded = load_reproducer(path_a)
        assert loaded == result.scenario
        assert loaded.digest() == payload["digest"]

    def test_load_rejects_non_reproducer(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"not": "a reproducer"}')
        with pytest.raises(ScenarioSpaceError):
            load_reproducer(path)

    def test_from_dict_validates_fields(self):
        with pytest.raises(ScenarioSpaceError):
            Scenario.from_dict({"kind": "fleet", "fields": {"nodes": 99}})
        with pytest.raises(ScenarioSpaceError):
            Scenario.from_dict({"kind": "bogus", "fields": {}})

    def test_replay_rejects_a_retired_field(self, tmp_path, capsys):
        # Reproducers saved before the fleet kind lost its ``lookahead``
        # field are rejected cleanly, never half-replayed.
        from repro import __main__ as cli

        scenario = fleet_scenario().to_dict()
        scenario["fields"]["lookahead"] = 2
        path = write_reproducer({"scenario": scenario}, tmp_path / "old.json")
        with pytest.raises(ScenarioSpaceError, match="lookahead"):
            replay(path)
        code = cli.main(["fuzz", "--replay", str(path)])
        err = capsys.readouterr().err
        assert code == 2  # the documented usage/configuration error code
        assert "fuzz: error:" in err and "'lookahead'" in err
        assert "Traceback" not in err


class TestKnownGoodSeedCorpus:
    def test_seed_5_corpus_runs_green_through_the_real_oracle(self):
        report = run_fuzz(FuzzConfig(seed=5, count=6))
        summary = report.to_dict()
        assert report.ok, summary["failures"]
        assert summary["passed"] == 6 and summary["failed"] == 0
        assert not report.reproducers
        # The campaign summary is itself deterministic: digests are a
        # pure function of the seed.
        again = [s.digest() for s in FuzzConfig(seed=5, count=6)
                 .generator().scenarios(6)]
        assert summary["scenario_digests"] == again


def _skewed_plan():
    """A deliberately broken burst governor: every committed burst's
    per-line completion times slide 1 us late, so fast-path timing
    (finish_ps, latency samples) drifts off the reference per-line run
    while functional output stays right — exactly the class of bug only
    differential comparison catches."""
    from repro.platform.fastpath import FastPath

    real_plan = FastPath._plan

    def skewed(self, dma, lines, channel):
        plan = real_plan(self, dma, lines, channel)
        plan["complete_ps"] = [t + 1_000_000 for t in plan["complete_ps"]]
        return plan

    return skewed


class TestSeededGovernorBug:
    BURST_FIELDS = {
        "data_kb": 128,
        "page_size": PAGE_SIZE_2M,
        "speculative_region_opt": False,
        "bytes_per_cycle": 4,
        "tile_lines": 64,
        "prefetch_tiles": 2,
        "pattern_seed": 1,
    }
    MINIMAL_FIELDS = {
        "data_kb": 64,
        "page_size": PAGE_SIZE_2M,
        "speculative_region_opt": False,
        "bytes_per_cycle": 4,
        "tile_lines": 32,
        "prefetch_tiles": 1,
        "pattern_seed": 1,
    }

    def test_oracle_catches_and_shrinks_the_bug(self):
        from repro.platform.fastpath import FastPath

        scenario = Scenario(kind="burst", fields=dict(self.BURST_FIELDS))
        assert run_scenario(scenario).ok  # healthy governor: arms agree
        with mock.patch.object(FastPath, "_plan", _skewed_plan()):
            result = run_scenario(scenario)
            assert not result.ok
            assert any("fast-path vs reference burst metrics" in failure
                       for failure in result.failures)
            shrunk = [
                shrink(scenario, lambda c: run_scenario(c).failures)
                for _ in range(2)
            ]
            # Deterministic: both shrinks land on the same minimum.
            assert shrunk[0].scenario == shrunk[1].scenario
            assert shrunk[0].scenario.fields == self.MINIMAL_FIELDS
            assert shrunk[0].steps >= 3  # data_kb, tile_lines, prefetch_tiles

    def test_campaign_catches_saves_and_replays(self, tmp_path):
        # Seed 6's first burst draw commits bursts (compute-bound, no
        # speculative decline), so the campaign must flag it, shrink it,
        # and write a replayable reproducer.
        from repro.platform.fastpath import FastPath

        with mock.patch.object(FastPath, "_plan", _skewed_plan()):
            report = run_fuzz(FuzzConfig(
                seed=6, count=1, kinds="burst",
                save_failures=str(tmp_path),
            ))
            assert not report.ok
            assert len(report.saved_paths) == 1
            path = report.saved_paths[0]
            reproducer = report.reproducers[0]
            assert reproducer["scenario"]["fields"] == {
                key: (value if not isinstance(value, tuple) else list(value))
                for key, value in self.MINIMAL_FIELDS.items()
            }
            # The saved file replays straight back to the same failure.
            replayed = replay(path)
            assert not replayed.ok
            assert replayed.failures == reproducer["failures"]
        # Bug fixed (patch lifted): the reproducer now passes — the file
        # doubles as the regression test for the eventual fix.
        assert replay(path).ok
