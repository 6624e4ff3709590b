import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

from carmik import arith, korselt, pipeline, zerosum
from carmik.construction import ConstructionConfig, ConstructionInstance
from carmik.errors import (
    ConfigError,
    FactorizationEffortError,
    InternalConsistencyError,
    SearchExhaustedError,
    StageError,
)

README = Path(__file__).resolve().parents[1] / "README.md"

BASE_CONFIG = """
# two-family run, bucket at z = 74
z = 74
nu = 2
omega_g = 1
omega_d = 1
j_cap = 40
k_cap = 4000
q_subset_size = 2
"""


class TestParseConfig:
    def test_minimal(self):
        rc = pipeline.parse_config("z = 74\nnu = 2\n")
        assert rc.construction.z == 74
        assert rc.construction.nu == 2
        assert rc.target_count == 1

    def test_comments_and_blanks(self):
        rc = pipeline.parse_config(BASE_CONFIG)
        assert rc.construction.q_subset_size == 2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            pipeline.parse_config("z = 74\nnu = 2\nfoo = 1\n")

    @pytest.mark.parametrize(
        "key", ["len_min", "len_max", "witness_cap", "node_cap", "fermat_bases", "seed"]
    )
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}$"):
            pipeline.parse_config(f"z = 74\nnu = 2\n{key} = 1\n")

    @pytest.mark.parametrize("count", [0, 65])
    def test_target_count_out_of_reach_rejected(self, count):
        with pytest.raises(ConfigError, match=r"target_count must lie in \[1, 64\]"):
            pipeline.parse_config(f"z = 74\nnu = 2\ntarget_count = {count}\n")

    def test_readme_table_lists_every_key(self):
        text = README.read_text().split("## Construction configs", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `(\w+)`", text, flags=re.MULTILINE)
        rendered = pipeline.render_config(pipeline.parse_config("z = 74\nnu = 2\n"))
        accepted = [line.split(" = ")[0] for line in rendered.splitlines()]
        assert sorted(documented) == sorted(accepted)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            pipeline.parse_config("z = 74\nz = 75\nnu = 2\n")

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="missing"):
            pipeline.parse_config("nu = 2\n")

    def test_odd_nu_rejected(self):
        with pytest.raises(ConfigError):
            pipeline.parse_config("z = 74\nnu = 3\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            pipeline.parse_config("z = abc\nnu = 2\n")

    def test_misspelled_bool_rejected(self):
        with pytest.raises(ConfigError, match="bad value in config: 'ture' is not a boolean"):
            pipeline.parse_config("z = 74\nnu = 2\nforce_zero_sum = ture\n")
        for text, value in (("No", False), ("0", False), ("YES", True), ("1", True)):
            rc = pipeline.parse_config(f"z = 74\nnu = 2\nforce_zero_sum = {text}\n")
            assert rc.force_zero_sum is value

    def test_render_roundtrip(self):
        rc = pipeline.parse_config(BASE_CONFIG)
        assert pipeline.parse_config(pipeline.render_config(rc)) == rc
        rc = pipeline.parse_config(BASE_CONFIG + "force_zero_sum = yes\nexponent_a = 1.75\n")
        assert rc.force_zero_sum is True and rc.construction.exponent_a == 1.75
        text = pipeline.render_config(rc)
        assert "force_zero_sum = True\n" in text and "exponent_a = 1.75\n" in text
        assert pipeline.parse_config(text) == rc


class TestHarvest:
    def test_deterministic(self):
        rc = pipeline.parse_config(BASE_CONFIG)
        a = pipeline.harvest_instance(rc.construction)
        b = pipeline.harvest_instance(rc.construction)
        assert a == b
        assert a.serialize() == b.serialize()
        assert pipeline.instance_fingerprint(a) == pipeline.instance_fingerprint(b)

    def test_the_derived_z200_instance_is_pinned(self):
        # perfbench's derived construct config: omega_g = 5 and j_cap = 789
        # from z, 20 349 g, split across the usable CPUs where there are two.
        cc = ConstructionConfig(z=200, nu=2, omega_d=2, q_subset_size=3)
        instance = pipeline.harvest_instance(cc)
        assert pipeline.instance_fingerprint(instance) == (
            "sha256:a0324db82e0e5a19fce831a76ec288c8d978e0835cb0d3f753fa7a9f6ef08d6c"
        )
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_bucket_stage_error(self):
        rc = pipeline.parse_config("z = 74\nnu = 2\nomega_g = 1\nq_subset_size = 40\n")
        with pytest.raises(StageError) as exc:
            pipeline.harvest_instance(rc.construction)
        assert exc.value.stage == "bucket"

    def test_family_stage_error(self):
        rc = pipeline.parse_config(
            "z = 74\nnu = 2\nomega_g = 1\nomega_d = 3\nq_subset_size = 2\nj_cap = 40\n"
        )
        with pytest.raises(StageError) as exc:
            pipeline.harvest_instance(rc.construction)
        assert exc.value.stage == "family-1"

    def test_failed_stage_is_timed(self):
        # Family 2 is empty mod 3 here: every Q2 prime is 1 mod 3 and k1 is 0 mod 3.
        cc = ConstructionConfig(z=200, nu=2, omega_g=1, omega_d=2, j_cap=40, k_cap=4000,
                                q_subset_size=3)
        timings = {}
        with pytest.raises(StageError) as exc:
            pipeline.harvest_instance(cc, timings)
        assert exc.value.stage == "family-2"
        assert str(exc.value).startswith("family-2: no k <= 4000 produced 1 primes")
        assert exc.value.data["k_cap"] == 4000
        assert isinstance(exc.value.__cause__, SearchExhaustedError)
        assert list(timings) == ["build_J", "populate_R", "select_split", "search_P1", "search_P2"]


class TestZeroSumStage:
    def test_insufficient_primes_guard(self):
        rc = pipeline.parse_config(BASE_CONFIG)
        instance = pipeline.harvest_instance(rc.construction)
        timings = {}
        with pytest.raises(StageError) as exc:
            pipeline.complete_batch(instance, rc, timings)
        assert exc.value.stage == "zero-sum-1"
        assert list(timings) == ["zero_sum"]
        assert "insufficient primes" in str(exc.value)
        assert exc.value.data["family_size"] == len(instance.p1)
        assert exc.value.data["threshold"] is None or exc.value.data["threshold"] > len(
            instance.p1
        )

    def test_forced_search_reports_no_witness(self):
        rc = pipeline.parse_config(BASE_CONFIG + "force_zero_sum = true\n")
        instance = pipeline.harvest_instance(rc.construction)
        with pytest.raises(StageError) as exc:
            pipeline.complete_batch(instance, rc)
        assert "no product-one subset" in str(exc.value)

    def test_config_must_match_the_instance(self):
        rc = pipeline.parse_config(BASE_CONFIG)
        instance = pipeline.harvest_instance(rc.construction)
        other = dataclasses.replace(rc.construction, nu=4, k_cap=100)
        timings = {}
        with pytest.raises(ConfigError, match="differ in nu, k_cap$"):
            pipeline.complete_batch(instance, dataclasses.replace(rc, construction=other), timings)
        assert timings == {}


class TestResume:
    def test_resume_equals_fresh_run(self, tmp_path):
        rc = pipeline.parse_config(BASE_CONFIG)
        instance = pipeline.harvest_instance(rc.construction)
        doc = tmp_path / "instance.txt"
        doc.write_text(instance.serialize())
        resumed = ConstructionInstance.parse(doc.read_text())
        assert resumed == instance
        # Both paths hit the same stage wall with the same diagnostics.
        with pytest.raises(StageError) as fresh:
            pipeline.complete_batch(instance, rc)
        with pytest.raises(StageError) as again:
            pipeline.complete_batch(resumed, rc)
        assert str(fresh.value) == str(again.value)


class TestRecheck:
    def test_accepts_certified_number(self):
        pipeline.independent_recheck(561, 2)

    def test_rejects_wrong_nu(self):
        with pytest.raises(InternalConsistencyError):
            pipeline.independent_recheck(561, 4)

    def test_rejects_non_carmichael(self):
        with pytest.raises(InternalConsistencyError):
            pipeline.independent_recheck(9, 2)


class TestBatchRecords:
    def test_record_shape_and_determinism(self, tmp_path):
        rc = pipeline.parse_config(BASE_CONFIG)
        instance = pipeline.harvest_instance(rc.construction)
        batch = pipeline.CarmichaelBatch(instance=instance, certificates=(korselt.is_carmichael(561),))
        assert [f.name for f in dataclasses.fields(batch)] == ["instance", "certificates"]
        lines = batch.records()
        assert lines == batch.records()
        record = json.loads(lines[0])
        assert record["n"] == "561"
        assert record["factors"] == [3, 11, 17]
        assert record["k_invariant"] == 2
        assert record["nu"] == 2
        assert record["instance"].startswith("sha256:")
        paths = pipeline.write_outputs(tmp_path, batch, {"certify": 0.1})
        assert paths["certificates"].read_text().count("\n") == 1
        assert json.loads(paths["timings"].read_text()) == {"certify": 0.1}


class TestAssembly:
    """Assembly and certification on families small enough to pair by hand.

    The harvested instance's families are replaced, and each family's
    witness is the whole family, so n is the product of every listed prime.
    """

    @pytest.fixture
    def assemble(self, monkeypatch):
        monkeypatch.setattr(
            pipeline, "_family_witnesses",
            lambda family, modulus, force, which: [zerosum.ZeroSumWitness(tuple(range(len(family))))],
        )
        rc = pipeline.parse_config(BASE_CONFIG)
        instance = pipeline.harvest_instance(rc.construction)

        def run(p1, p2, timings=None, target_count=1, **construction):
            cc = dataclasses.replace(rc.construction, **construction)
            run_config = dataclasses.replace(rc, construction=cc, target_count=target_count)
            families = dataclasses.replace(
                instance, config=cc,
                p1=tuple((p, 1) for p in p1), p2=tuple((p, 1) for p in p2),
            )
            return pipeline.complete_batch(families, run_config, timings)

        return run

    def test_561_is_certified_from_its_factors(self, assemble, monkeypatch):
        calls = []
        factorize = arith.factorize
        monkeypatch.setattr(
            arith, "factorize", lambda n, *a, **kw: calls.append(n) or factorize(n, *a, **kw)
        )
        timings = {}
        batch = assemble((3,), (11, 17), timings)
        (cert,) = batch.certificates
        assert (cert.n, cert.k_invariant, cert.factors.primes) == (561, 2, (3, 11, 17))
        assert list(timings)[-1] == "certify"
        # Only the independent recheck factors n.
        assert calls.count(561) == 1

    def test_korselt_failure_is_inconsistent(self, assemble):
        with pytest.raises(InternalConsistencyError, match=r"11 \| 627 but 10 does not divide 626"):
            assemble((3,), (11, 19))

    def test_composite_factor_is_named(self, assemble):
        with pytest.raises(InternalConsistencyError, match="assembled factor 15 is composite"):
            assemble((3,), (11, 15))

    def test_too_few_certificates_is_an_assembly_error(self, assemble):
        with pytest.raises(StageError) as exc:
            assemble((3,), (11, 17), target_count=2)
        assert exc.value.stage == "assembly"
        assert exc.value.data == {"assembled": 1}

    def test_recheck_past_the_effort_cap_is_a_certify_error(self, assemble):
        timings = {}
        with pytest.raises(StageError) as exc:
            assemble((3,), (11, 17), timings, factor_digits=2)
        assert exc.value.stage == "certify"
        assert exc.value.data == {"digits": 3, "factor_digits": 2}
        assert isinstance(exc.value.__cause__, FactorizationEffortError)
        assert list(timings)[-1] == "certify"
