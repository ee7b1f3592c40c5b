"""Blob recipes: instruction grammar, parameters, variants, determinism."""
from __future__ import annotations

import random

import pytest

import fixture_data as fd
from vulnhunt.errors import RecipeError
from vulnhunt.recipes import RecipeBlobFactory, parse_recipe


def simple_recipe(**extra):
    obj = {
        "instructions": [
            {"op": "literal", "text": "HDR"},
            {"op": "repeat", "byte": 0x41, "count": {"param": "pad"}},
            {"op": "integer", "value": 0x01020304, "width": 4, "endian": "be"},
        ],
        "variants": [{"pad": 0}, {"pad": 2}, {"pad": 5}],
    }
    obj.update(extra)
    return obj


def make_variants(obj, count=3):
    return RecipeBlobFactory().make_variants(obj, count)


def test_evaluate_all_variants_in_order():
    blobs = make_variants(simple_recipe())
    assert blobs == [
        b"HDR\x01\x02\x03\x04",
        b"HDRAA\x01\x02\x03\x04",
        b"HDRAAAAA\x01\x02\x03\x04",
    ]


def test_each_op_emits_expected_bytes():
    obj = {
        "instructions": [
            {"op": "literal", "hex": "00ff"},
            {"op": "integer", "value": 0x0102, "width": 2, "endian": "le"},
            {"op": "integer", "value": 258, "width": 8, "endian": "be"},
            {"op": "concat", "parts": [
                {"op": "literal", "text": "X"},
                {"op": "repeat", "byte": 9, "count": 3},
            ]},
            {"op": "random", "count": 4, "seed": 99},
        ],
        "variants": [{}],
    }
    [blob] = make_variants(obj, 1)
    expected_random = random.Random(99).randbytes(4)
    assert blob == (b"\x00\xff" + b"\x02\x01" +
                    (258).to_bytes(8, "big") + b"X\x09\x09\x09" + expected_random)


def test_random_op_is_deterministic_across_calls():
    obj = {"instructions": [{"op": "random", "count": 16, "seed": 5}], "variants": [{}]}
    assert make_variants(obj, 1) == make_variants(obj, 1)


def test_integer_wraps_modulo_width():
    obj = {"instructions": [{"op": "integer", "value": 0x1FF, "width": 1, "endian": "le"}],
           "variants": [{}]}
    assert make_variants(obj, 1) == [b"\xff"]


def test_parameters_resolve_from_variant_bindings():
    obj = {
        "instructions": [
            {"op": "integer", "value": {"param": "magic"}, "width": 4, "endian": "le"},
            {"op": "repeat", "byte": {"param": "fill"}, "count": {"param": "n"}},
        ],
        "variants": [
            {"magic": 1, "fill": 0x41, "n": 2},
            {"magic": 2, "fill": 0x42, "n": 0},
        ],
    }
    blobs = make_variants(obj, 2)
    assert blobs == [b"\x01\x00\x00\x00AA", b"\x02\x00\x00\x00"]


def test_exact_variant_count_enforced():
    with pytest.raises(RecipeError, match="exactly 3 variants, got 2"):
        parse_recipe(simple_recipe(variants=[{"pad": 1}, {"pad": 2}]))
    with pytest.raises(RecipeError, match="exactly 1 variants, got 3"):
        parse_recipe(simple_recipe(), expected_variants=1)


def test_error_paths_carry_instruction_location():
    with pytest.raises(RecipeError, match=r"instructions\[0\]: unknown op"):
        parse_recipe({"instructions": [{"op": "emit"}], "variants": [{}]}, 1)
    with pytest.raises(RecipeError, match="exactly one of 'hex'/'text'"):
        parse_recipe({"instructions": [{"op": "literal"}], "variants": [{}]}, 1)
    with pytest.raises(RecipeError, match="non-empty 'instructions'"):
        parse_recipe({"instructions": [], "variants": [{}]}, 1)
    with pytest.raises(RecipeError, match="out of range"):
        make_variants({"instructions": [{"op": "repeat", "byte": 300, "count": 1}],
                       "variants": [{}]}, 1)
    with pytest.raises(RecipeError, match="unbound parameter 'n'"):
        make_variants({"instructions": [{"op": "repeat", "byte": 0, "count": {"param": "n"}}],
                       "variants": [{}]}, 1)
    with pytest.raises(RecipeError, match="width must be"):
        make_variants({"instructions": [{"op": "integer", "value": 0, "width": 3, "endian": "le"}],
                       "variants": [{}]}, 1)
    with pytest.raises(RecipeError, match="negative"):
        make_variants({"instructions": [{"op": "repeat", "byte": 0, "count": -1}],
                       "variants": [{}]}, 1)


def test_factory_contract():
    recipe = simple_recipe()
    assert parse_recipe(recipe) == (recipe["instructions"], recipe["variants"])
    factory = RecipeBlobFactory()
    blobs = factory.make_variants(recipe, 3)
    assert len(blobs) == 3
    with pytest.raises(RecipeError):
        factory.make_variants(simple_recipe(), 2)   # wrong expected count


def test_scenario_palette_recipe_produces_planned_lengths():
    payload = fd.E2E_SCENARIO["agents"]["poc-generator"][0]["steps"][0]["tool_calls"][0][
        "args"]["recipe"]
    blobs = RecipeBlobFactory().make_variants(payload, 3)
    assert [len(b) for b in blobs] == [20, 32, 76]
    for blob in blobs:
        assert blob.startswith(b"IMGX")
        assert blob[8:12] == fd.PALETTE_MAGIC.to_bytes(4, "little")
