import json

import pytest

from anncap.gallery import (
    UNRESOLVED_CONFIGURATIONS,
    default_gallery,
    gallery_manifest,
    make_bowtie,
    make_halfline,
    make_rn_unweighted,
    make_snake,
    verify_expectations,
)
from anncap.weights import HalfLineKind


def test_default_gallery_composition():
    entries = default_gallery()
    assert len(entries) == 9
    names = [e.name for e in entries]
    assert len(set(names)) == 9
    assert "snake" in names


def test_manifest_json():
    doc = json.loads(gallery_manifest())
    assert len(doc["spaces"]) == 9
    for row in doc["spaces"]:
        assert set(row) == {"name", "geometry", "weight", "expected", "claims"}
    assert doc["unresolved"] == list(UNRESOLVED_CONFIGURATIONS)
    assert all(u["status"] == "UNRESOLVED" for u in doc["unresolved"])


def test_every_claim_has_a_runner():
    from anncap.gallery import _CLAIM_RUNNERS

    for entry in default_gallery():
        for claim, _ in entry.expected.sharpness_claims:
            assert claim in _CLAIM_RUNNERS, (entry.name, claim)


def test_traits_consistent_with_expected():
    for entry in default_gallery():
        t, e = entry.space.traits, entry.expected
        assert t.doubling == e.doubling or not e.doubling
        assert (t.reverse_doubling is not None) == e.reverse_doubling
        if e.ad_eta is not None and t.ad_eta is not None:
            assert t.ad_eta == pytest.approx(e.ad_eta)


def test_bowtie_pi_threshold():
    # 1-Poincare declared only when n + alpha <= 1
    assert 1.0 in make_bowtie(-1.5).space.traits.pi_exponents
    assert 1.0 not in make_bowtie(0.5).space.traits.pi_exponents
    assert make_bowtie(0.5).space.traits.supports_pi(2.6)
    assert not make_bowtie(0.5).space.traits.supports_pi(2.5)  # open infimum


def test_budget_exhaustion_reports_skipped():
    verdicts = verify_expectations(make_rn_unweighted(2), budget=0.0)
    assert verdicts
    assert all(v.status == "SKIPPED" for v in verdicts)
    assert all("budget" in v.evidence for v in verdicts)


def test_rn_entry_all_pass():
    verdicts = verify_expectations(make_rn_unweighted(2))
    assert {v.claim for v in verdicts} >= {"ad-exponent", "doubling", "reverse-doubling",
                                           "one-ad", "nice-case-envelope"}
    bad = [v for v in verdicts if v.status != "PASS"]
    assert not bad, bad


def test_exp_inv_entry_all_pass():
    verdicts = verify_expectations(make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ))
    bad = [v for v in verdicts if v.status != "PASS"]
    assert not bad, bad


def test_snake_entry_all_pass():
    verdicts = verify_expectations(make_snake())
    bad = [v for v in verdicts if v.status != "PASS"]
    assert not bad, bad


def test_full_gallery_no_failures():
    for entry in default_gallery():
        verdicts = verify_expectations(entry)
        bad = [v for v in verdicts if v.status == "FAIL"]
        assert not bad, (entry.name, bad)
