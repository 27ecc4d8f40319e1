"""Both front ends reject bad input with the repo's typed errors only.

Arbitrary text through either tokeniser raises nothing but
:class:`LexError`; a shipped kernel-C or Ensemble source with a few
characters inserted raises nothing but a :class:`ReproError` subclass
from ``kernelc.build`` or ``ensemble.compile_source``.  The inserted
characters are the ones that used to slip through: non-ASCII digits
(which ``str.isdigit`` admits but ``int()`` rejects) and the pieces of
numbers, strings and directives.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ensemble, kernelc
from repro.apps.docrank import sources as docrank
from repro.apps.lud import sources as lud
from repro.apps.mandelbrot import sources as mandelbrot
from repro.apps.matmul import sources as matmul
from repro.apps.reduction import sources as reduction
from repro.ensemble.lexer import tokenize as ensemble_tokenize
from repro.errors import LexError, ReproError
from repro.kernelc.lexer import tokenize as kernelc_tokenize

APPS = (docrank, lud, mandelbrot, matmul, reduction)

KERNELC_SOURCES = [
    source
    for app in APPS
    for source in (app.KERNEL_SOURCE, app.SINGLE_C_SOURCE)
]

ENSEMBLE_SOURCES = [
    docrank.ensemble_opencl_source(64, 16, 2),
    docrank.ensemble_single_source(64, 16, 2),
    lud.ensemble_opencl_source(8),
    lud.ensemble_single_source(8),
    mandelbrot.ensemble_opencl_source(16, 16, 50),
    mandelbrot.ensemble_single_source(16, 16, 50),
    matmul.ensemble_opencl_source(8),
    matmul.ensemble_single_source(8),
    reduction.ensemble_opencl_source(128),
    reduction.ensemble_single_source(128),
]

INSERTS = ["²", "①", "٣", "#", '"', "`", ".", "e", "E", "0"]


@st.composite
def with_insertions(draw, sources):
    """One of *sources* with 1-3 characters from INSERTS inserted."""
    source = draw(st.sampled_from(sources))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(st.sampled_from(INSERTS)) + source[at:]
    return source


class TestTokenisers:
    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_kernelc_raises_only_lex_errors(self, text):
        try:
            kernelc_tokenize(text)
        except LexError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(st.text())
    def test_ensemble_raises_only_lex_errors(self, text):
        try:
            ensemble_tokenize(text)
        except LexError:
            pass


class TestShippedSourcesWithInsertions:
    @settings(max_examples=200, deadline=None)
    @given(with_insertions(KERNELC_SOURCES))
    def test_kernelc_build_raises_only_typed_errors(self, source):
        try:
            kernelc.build(source)
        except ReproError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(with_insertions(ENSEMBLE_SOURCES))
    def test_ensemble_compile_raises_only_typed_errors(self, source):
        try:
            ensemble.compile_source(source)
        except ReproError:
            pass


class TestFoundInputs:
    """Inputs that raised ``ValueError`` (from ``int()`` or ``float()``)
    or ``SyntaxError`` (a generated Python name) before identifiers and
    digits were ASCII and an Ensemble exponent needed a digit."""

    @pytest.mark.parametrize("compile_, source", [
        (kernelc.build, "__kernel void k(__global int *o) { o[0] = ²; }"),
        (kernelc.build,
         "__kernel void k(__global int *o) { int a² = 1; o[0] = a²; }"),
        (ensemble.compile_source, "stage home { boot { x = ²; } }"),
        (ensemble.compile_source, "stage home { boot { x = 1.5e; } }"),
    ])
    def test_typed_error(self, compile_, source):
        with pytest.raises(ReproError):
            compile_(source)
