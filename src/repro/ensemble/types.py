"""Semantic types of the Ensemble language and the program type table."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TypeCheckError
from . import ast


class EType:
    """Base class of semantic types."""

    def __str__(self) -> str:  # pragma: no cover - overridden
        return type(self).__name__


class _Simple(EType):
    def __init__(self, name: str) -> None:
        self.name = name

    def __str__(self) -> str:
        return self.name

    def __eq__(self, other) -> bool:
        return isinstance(other, _Simple) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("simple", self.name))


INT = _Simple("integer")
REAL = _Simple("real")
BOOL = _Simple("boolean")
STRING = _Simple("string")
VOID = _Simple("void")

NUMERIC = (INT, REAL)


@dataclass(frozen=True)
class ArrT(EType):
    """An array type; multi-dimensional arrays nest (`real[][]` is
    ArrT(ArrT(REAL)))."""

    element: EType

    def __str__(self) -> str:
        return f"{self.element}[]"

    @property
    def ndim(self) -> int:
        inner = self.element
        n = 1
        while isinstance(inner, ArrT):
            n += 1
            inner = inner.element
        return n

    @property
    def scalar(self) -> EType:
        inner: EType = self
        while isinstance(inner, ArrT):
            inner = inner.element
        return inner


@dataclass(frozen=True)
class StructT(EType):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ChanEndT(EType):
    direction: str  # 'in' | 'out'
    element: EType
    movable: bool = False

    def __str__(self) -> str:
        movtxt = "mov " if self.movable else ""
        return f"{self.direction} {movtxt}{self.element}"


@dataclass(frozen=True)
class ActorT(EType):
    name: str

    def __str__(self) -> str:
        return f"actor {self.name}"


@dataclass
class StructInfo:
    name: str
    fields: list[tuple[str, EType]]
    is_opencl: bool = False
    # For opencl structs: resolved roles.
    worksize_field: str = ""
    groupsize_field: str = ""
    input_field: str = ""
    output_field: str = ""
    in_movable: bool = False

    def field_type(self, fname: str) -> EType:
        for name, typ in self.fields:
            if name == fname:
                return typ
        raise TypeCheckError(f"struct {self.name} has no field {fname!r}")


@dataclass
class InterfaceInfo:
    name: str
    channels: list[tuple[str, ChanEndT]]
    buffers: dict[str, int] = field(default_factory=dict)

    def channel_type(self, cname: str) -> ChanEndT:
        for name, typ in self.channels:
            if name == cname:
                return typ
        raise TypeCheckError(
            f"interface {self.name} has no channel {cname!r}"
        )


@dataclass
class ActorInfo:
    name: str
    interface: str
    ctor_params: list[tuple[str, EType]]
    is_opencl: bool = False
    settings: dict[str, str] = field(default_factory=dict)


class TypeTable:
    """All named types of one program."""

    def __init__(self) -> None:
        self.structs: dict[str, StructInfo] = {}
        self.interfaces: dict[str, InterfaceInfo] = {}
        self.actors: dict[str, ActorInfo] = {}
        self.functions: dict[str, tuple[list[tuple[str, EType]], EType]] = {}

    # -- resolution ---------------------------------------------------------

    def resolve(self, expr: ast.TypeExpr) -> EType:
        """Resolve a syntactic type expression to a semantic type."""
        if isinstance(expr, ast.MovType):
            # movability is carried on channel ends, not on value types
            return self.resolve(expr.inner)
        if isinstance(expr, ast.NamedType):
            simple = {
                "integer": INT,
                "real": REAL,
                "boolean": BOOL,
                "string": STRING,
            }.get(expr.name)
            if simple is not None:
                return simple
            if expr.name in self.structs:
                return StructT(expr.name)
            if expr.name in self.actors:
                return ActorT(expr.name)
            raise TypeCheckError(f"unknown type {expr.name!r}", expr.line)
        if isinstance(expr, ast.ArrayTypeExpr):
            typ = self.resolve(expr.element)
            for _ in range(expr.dims):
                typ = ArrT(typ)
            return typ
        if isinstance(expr, ast.ChanTypeExpr):
            elem = self.resolve(expr.element)
            movable = expr.movable or isinstance(expr.element, ast.MovType)
            return ChanEndT(expr.direction, elem, movable)
        raise TypeCheckError(f"cannot resolve type {expr!r}")

    def struct(self, name: str) -> StructInfo:
        try:
            return self.structs[name]
        except KeyError:
            raise TypeCheckError(f"unknown struct {name!r}") from None

    def interface(self, name: str) -> InterfaceInfo:
        try:
            return self.interfaces[name]
        except KeyError:
            raise TypeCheckError(f"unknown interface {name!r}") from None

    def actor(self, name: str) -> ActorInfo:
        try:
            return self.actors[name]
        except KeyError:
            raise TypeCheckError(f"unknown actor {name!r}") from None


def assignable(target: EType, value: EType) -> bool:
    """True when *value* may be assigned to *target* (int widens to real)."""
    if target == value:
        return True
    if target == REAL and value == INT:
        return True
    return False
