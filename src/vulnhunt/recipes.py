"""Blob recipes: the declarative PoC format agents emit.

Instead of generator programs, the PoC agent describes an input as an
ordered list of emit instructions plus per-variant parameter bindings; every
``create_pov`` call evaluates all variants (three by default).  Evaluation
is pure and deterministic, including the ``random`` op, which takes an
explicit seed.

Instruction grammar (JSON)::

    {"op": "literal", "hex": "..."} | {"op": "literal", "text": "..."}
    {"op": "repeat",  "byte": B, "count": N}
    {"op": "integer", "value": V, "width": 1|2|4|8, "endian": "le"|"be"}
    {"op": "random",  "count": N, "seed": S}
    {"op": "concat",  "parts": [instruction, ...]}

Any numeric field may be written as ``{"param": "name"}`` and resolved from
the variant's bindings.

``parse_recipe`` checks the shape and returns the instruction and binding
lists; ``RecipeBlobFactory.make_variants`` evaluates the instructions once
per binding, where a bad value (say, an unbound parameter) raises.
"""

from __future__ import annotations

import random

from .errors import RecipeError

DEFAULT_VARIANTS = 3

_INSTRUCTION_OPS = ("literal", "repeat", "integer", "random", "concat")


def parse_recipe(obj: dict, expected_variants: int = DEFAULT_VARIANTS) -> tuple[list, list]:
    """Validate recipe shape and return its instructions and variant
    bindings; raises RecipeError with a location on failure."""
    if not isinstance(obj, dict):
        raise RecipeError("recipe must be an object")
    instructions = obj.get("instructions")
    if not isinstance(instructions, list) or not instructions:
        raise RecipeError("recipe needs a non-empty 'instructions' list")
    for i, instr in enumerate(instructions):
        _validate_instruction(instr, f"instructions[{i}]")
    variants = obj.get("variants", [])
    if not isinstance(variants, list):
        raise RecipeError("'variants' must be a list of binding objects")
    if len(variants) != expected_variants:
        raise RecipeError(
            f"recipe must carry exactly {expected_variants} variants, got {len(variants)}"
        )
    for i, bindings in enumerate(variants):
        if not isinstance(bindings, dict):
            raise RecipeError(f"variants[{i}] must be an object")
    return instructions, variants


def _validate_instruction(instr: dict, where: str) -> None:
    if not isinstance(instr, dict):
        raise RecipeError(f"{where}: instruction must be an object")
    op = instr.get("op")
    if op not in _INSTRUCTION_OPS:
        raise RecipeError(f"{where}: unknown op {op!r}")
    if op == "literal":
        if ("hex" in instr) == ("text" in instr):
            raise RecipeError(f"{where}: literal needs exactly one of 'hex'/'text'")
    elif op == "repeat":
        for key in ("byte", "count"):
            if key not in instr:
                raise RecipeError(f"{where}: repeat needs '{key}'")
    elif op == "integer":
        for key in ("value", "width", "endian"):
            if key not in instr:
                raise RecipeError(f"{where}: integer needs '{key}'")
    elif op == "random":
        for key in ("count", "seed"):
            if key not in instr:
                raise RecipeError(f"{where}: random needs '{key}'")
    elif op == "concat":
        parts = instr.get("parts")
        if not isinstance(parts, list) or not parts:
            raise RecipeError(f"{where}: concat needs a non-empty 'parts' list")
        for i, part in enumerate(parts):
            _validate_instruction(part, f"{where}.parts[{i}]")


def _resolve(value, bindings: dict, where: str) -> int:
    if isinstance(value, dict):
        name = value.get("param")
        if not isinstance(name, str):
            raise RecipeError(f"{where}: parameter reference needs a 'param' name")
        if name not in bindings:
            raise RecipeError(f"{where}: unbound parameter '{name}'")
        value = bindings[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise RecipeError(f"{where}: expected an integer, got {value!r}")
    return value


def _emit(instr: dict, bindings: dict, where: str) -> bytes:
    op = instr["op"]
    if op == "literal":
        if "hex" in instr:
            try:
                return bytes.fromhex(str(instr["hex"]))
            except ValueError as exc:
                raise RecipeError(f"{where}: bad hex literal") from exc
        return str(instr["text"]).encode("utf-8")
    if op == "repeat":
        byte = _resolve(instr["byte"], bindings, f"{where}.byte")
        count = _resolve(instr["count"], bindings, f"{where}.count")
        if not (0 <= byte <= 255):
            raise RecipeError(f"{where}: repeat byte {byte} out of range")
        if count < 0:
            raise RecipeError(f"{where}: repeat count {count} negative")
        return bytes([byte]) * count
    if op == "integer":
        value = _resolve(instr["value"], bindings, f"{where}.value")
        width = _resolve(instr["width"], bindings, f"{where}.width")
        endian = instr["endian"]
        if width not in (1, 2, 4, 8):
            raise RecipeError(f"{where}: integer width must be 1/2/4/8")
        if endian not in ("le", "be"):
            raise RecipeError(f"{where}: endian must be 'le' or 'be'")
        try:
            return (value % (1 << (8 * width))).to_bytes(
                width, "little" if endian == "le" else "big"
            )
        except OverflowError as exc:
            raise RecipeError(f"{where}: integer does not fit width {width}") from exc
    if op == "random":
        count = _resolve(instr["count"], bindings, f"{where}.count")
        seed = _resolve(instr["seed"], bindings, f"{where}.seed")
        if count < 0:
            raise RecipeError(f"{where}: random count {count} negative")
        return random.Random(seed).randbytes(count)
    if op == "concat":
        return b"".join(
            _emit(part, bindings, f"{where}.parts[{i}]")
            for i, part in enumerate(instr["parts"])
        )
    raise AssertionError(f"unreachable op {op!r}")


class RecipeBlobFactory:
    """Default factory: payload is a recipe object."""

    def make_variants(self, payload: dict, count: int) -> list[bytes]:
        """Evaluate every variant of the recipe ``payload``, in order."""
        instructions, variants = parse_recipe(payload, expected_variants=count)
        located = [(instr, f"instructions[{i}]") for i, instr in enumerate(instructions)]
        return [b"".join(_emit(instr, bindings, where) for instr, where in located)
                for bindings in variants]
