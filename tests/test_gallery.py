import collections
import dataclasses
import json
import math
import pathlib

import pytest

from anncap import bounds, gallery, measure
from anncap.cli import run
from anncap.errors import InputError
from anncap.gallery import (
    UNRESOLVED_CONFIGURATIONS,
    default_gallery,
    gallery_manifest,
    make_bowtie,
    make_buckley,
    make_halfline,
    make_rn_unweighted,
    make_snake,
    make_summed_buckley,
    verify_expectations,
)
from anncap.weights import HalfLineKind


def test_default_gallery_composition():
    entries = default_gallery()
    assert len(entries) == 9
    names = [e.name for e in entries]
    assert len(set(names)) == 9
    assert "snake" in names


def test_manifest_json(capsys):
    assert run(["gallery", "list"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert len(doc["spaces"]) == 9
    for row in doc["spaces"]:
        assert set(row) == {"name", "geometry", "weight", "expected", "claims"}
    assert doc["unresolved"] == list(UNRESOLVED_CONFIGURATIONS)
    assert all(u["status"] == "UNRESOLVED" for u in doc["unresolved"])
    # the manifest itself holds plain values; the CLI writes the floats
    assert [row["expected"]["ad_eta"] for row in gallery_manifest()["spaces"]] == [
        1.0, 0.5, 0.5, 1.0, 1.0, None, 1.0, 1.0, None]
    # what `anncap gallery list` prints, byte for byte as recorded
    golden = pathlib.Path(__file__).parent / "golden" / "gallery_manifest.json"
    assert out.encode() == golden.read_bytes()


def test_bowtie_pi_threshold():
    # 1-Poincare declared only when n + alpha <= 1
    assert 1.0 in make_bowtie(-1.5).space.traits.pi_exponents
    assert 1.0 not in make_bowtie(0.5).space.traits.pi_exponents
    assert make_bowtie(0.5).space.traits.supports_pi(2.6)
    assert not make_bowtie(0.5).space.traits.supports_pi(2.5)  # open infimum


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
    lines = []
    for entry in default_gallery():
        verdicts = verify_expectations(entry)
        bad = [v for v in verdicts if v.status == "FAIL"]
        assert not bad, (entry.name, bad)
        lines += [f"{entry.name} / {v.claim}: {v.status} - {v.evidence}" for v in verdicts]
    # the lines `anncap gallery verify` prints, byte for byte as recorded
    golden = pathlib.Path(__file__).parent / "golden" / "gallery_verify.txt"
    assert lines == golden.read_text(encoding="utf-8").splitlines()


def test_reverse_doubling_reuses_the_doubling_volumes(monkeypatch):
    entry = make_rn_unweighted(2)
    probed = set(entry.check_radii) | {2.0 * r for r in entry.check_radii}
    calls = collections.Counter()
    original = measure._measure_family

    def recorded(space, intervals):
        calls.update(R for r, R in intervals if r == 0.0)
        return original(space, intervals)

    monkeypatch.setattr(measure, "_measure_family", recorded)
    verdicts = verify_expectations(entry)
    assert {v.claim for v in verdicts} >= {"doubling", "reverse-doubling"}
    assert {R: n for R, n in calls.items() if R in probed} == dict.fromkeys(probed, 1)


def test_doubling_and_reverse_doubling_read_one_probe(monkeypatch):
    calls = []
    original = gallery.doubling_ratios

    def spy(space, radii):
        calls.append(tuple(radii))
        return original(space, radii)

    monkeypatch.setattr(gallery, "doubling_ratios", spy)
    entry = make_rn_unweighted(2)
    verdicts = verify_expectations(entry)
    assert {v.claim for v in verdicts} >= {"doubling", "reverse-doubling"}
    assert calls == [entry.check_radii]


@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_a_bowtie_entry_computes_each_interval_once(monkeypatch, alpha):
    # ad-exponent's two thin families, 20 intervals, and the doubling
    # probes' 16 balls; measure-exponent reads the R = 1 family again
    intervals = []
    original = measure._measure_family

    def recorded(space, family):
        intervals.extend(family)
        return original(space, family)

    monkeypatch.setattr(measure, "_measure_family", recorded)
    verify_expectations(make_bowtie(alpha))
    assert len(intervals) == len(set(intervals)) == 36


def test_claims_share_the_envelope_and_the_trend_they_both_read(monkeypatch):
    calls = collections.Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "cap_values":
                calls["annuli"] += len(args[2])
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(bounds, "cap_values")
    counted(gallery, "ad_ratio_trend")
    counted(gallery, "check_one_ad")
    # upper-eta-sharp and nice-case-fails read one envelope over 9 annuli,
    # whose capacities are one family call
    verify_expectations(make_buckley(0.5))
    assert (calls["cap_values"], calls["annuli"]) == (1, 9)
    # ad-exponent and no-ad read one ad_ratio trend over the none-probe
    verify_expectations(make_snake())
    assert calls["ad_ratio_trend"] == 1
    # one-ad and condition-d-fails read one check_one_ad over one_ad_range
    for kind in (HalfLineKind.MIN_ONE_OVER_X, HalfLineKind.EXP_DECAY):
        calls.clear()
        verdicts = verify_expectations(make_halfline(kind))
        assert {"one-ad", "condition-d-fails"} <= {v.claim for v in verdicts}
        assert calls["check_one_ad"] == 1, kind


# dataclasses.astuple(traits), field by field: pi_exponents, pi_open_infimum,
# pi_global, doubling, globally_doubling, reverse_doubling, corkscrew, ad_eta
_RN_TRAITS = (frozenset({1.0}), None, True, True, True, True, True, 1.0)
_HALFLINE_AD1_TRAITS = (frozenset({1.0}), None, False, True, False, False, False, 1.0)


@pytest.mark.parametrize("make, traits", [
    (lambda: make_rn_unweighted(2), _RN_TRAITS),
    (lambda: make_buckley(0.5), _RN_TRAITS[:-1] + (0.5,)),
    (lambda: make_summed_buckley(0.5), _RN_TRAITS[:-1] + (0.5,)),
    (lambda: make_bowtie(-0.5), (frozenset(), 1.5, True, True, True, True, True, 1.0)),
    (lambda: make_bowtie(0.5), (frozenset(), 2.5, True, True, True, True, True, 1.0)),
    (make_snake, (frozenset({1.0}), None, True, True, True, True, False, None)),
    (lambda: make_halfline(HalfLineKind.MIN_ONE_OVER_X), _HALFLINE_AD1_TRAITS),
    (lambda: make_halfline(HalfLineKind.EXP_DECAY), _HALFLINE_AD1_TRAITS),
    (lambda: make_halfline(HalfLineKind.EXP_INV_OVER_X_SQ),
     (frozenset({1.0}), None, False, False, False, True, False, None)),
    (lambda: make_rn_unweighted(3), _RN_TRAITS),
    (lambda: make_buckley(0.3, 2), _RN_TRAITS[:-1] + (0.3,)),
    (lambda: make_bowtie(-1.5), (frozenset({1.0}), 0.5, True, True, True, True, True, 0.5)),
    (lambda: make_bowtie(0.5, 3), (frozenset(), 3.5, True, True, True, True, True, 1.0)),
], ids=["rn-2", "buckley-0.5", "summed-buckley-0.5", "bowtie-alpha--0.5", "bowtie-alpha-0.5",
        "snake", "min-one-over-x", "exp-decay", "exp-inv-over-x-sq", "rn-3", "buckley-0.3-n2",
        "bowtie-alpha--1.5", "bowtie-3d-alpha-0.5"])
def test_declared_traits_are_pinned(make, traits):
    # every field, as recorded: the golden manifest shows only ad_eta, one-AD,
    # doubling and reverse doubling
    assert dataclasses.astuple(make().space.traits) == traits


@pytest.mark.parametrize("eta", [0.0, 1.0, 1.5, math.nan])
def test_a1_makers_refuse_eta_through_the_weight(eta):
    # the weight checks eta before the traits do, so the message names it
    with pytest.raises(InputError, match="^BuckleyEta needs eta in"):
        make_buckley(eta)
    with pytest.raises(InputError, match="^SummedBuckley needs eta in"):
        make_summed_buckley(eta)
