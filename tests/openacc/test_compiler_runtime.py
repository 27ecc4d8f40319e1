"""Pragma compiler + executor behaviour."""

import importlib

import pytest

from repro.errors import AccUnsupportedError
from repro.openacc import AccProgram, compile_acc
from repro.opencl.context import fresh_clock


class TestRegionClassification:
    def test_simple_loop_becomes_kernel(self):
        acc = compile_acc(
            """
            void f(__global float *a, int n) {
                #pragma acc parallel loop copy(a)
                for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
            }
            """
        )
        assert list(acc.loop_regions.values())[0].kind == "kernel"

    def test_scalar_dependency_falls_back(self):
        acc = compile_acc(
            """
            float f(__global float *a, int n) {
                float acc = 0.0;
                #pragma acc parallel loop copyin(a)
                for (int i = 0; i < n; i++) { acc = acc + a[i]; }
                return acc;
            }
            """
        )
        region = list(acc.loop_regions.values())[0]
        assert region.kind == "sequential"
        assert "scalar" in region.reason

    def test_shifted_array_dependency_falls_back(self):
        acc = compile_acc(
            """
            void f(__global float *a, int n) {
                #pragma acc parallel loop copy(a)
                for (int i = 1; i < n; i++) { a[i] = a[i - 1] + a[i]; }
            }
            """
        )
        region = list(acc.loop_regions.values())[0]
        assert region.kind == "sequential"
        assert "array" in region.reason

    def test_lud_style_access_is_parallelised(self):
        # m[i*n+k] reads m[k*n+k]: the loop variable is not additively
        # shifted, so this must NOT be flagged (paper: LUD worked).
        acc = compile_acc(
            """
            void f(__global float *m, int n, int k) {
                #pragma acc parallel loop copy(m) gang vector
                for (int i = k + 1; i < n; i++) {
                    m[i * n + k] = m[i * n + k] / m[k * n + k];
                }
            }
            """
        )
        assert list(acc.loop_regions.values())[0].kind == "kernel"

    def test_break_falls_back(self):
        acc = compile_acc(
            """
            void f(__global float *a, int n) {
                #pragma acc parallel loop copy(a)
                for (int i = 0; i < n; i++) {
                    if (a[i] < 0.0) { break; }
                    a[i] = 1.0;
                }
            }
            """
        )
        assert list(acc.loop_regions.values())[0].kind == "sequential"

    def test_function_call_aborts_gpu_compilation(self):
        source = """
        float g(float x) { return x + 1.0; }
        void f(__global float *a, int n) {
            #pragma acc parallel loop copy(a)
            for (int i = 0; i < n; i++) { a[i] = g(a[i]); }
        }
        """
        with pytest.raises(AccUnsupportedError):
            compile_acc(source)
        # OpenMP host compilation accepts it (the paper's gcc path).
        acc = compile_acc(source, allow_calls=True)
        assert list(acc.loop_regions.values())[0].kind == "kernel"

    def test_irregular_loop_disables_vectorisation(self):
        acc = compile_acc(
            """
            void f(__global int *a, int n) {
                #pragma acc parallel loop copy(a) gang worker vector
                for (int i = 0; i < n; i++) {
                    int v = a[i];
                    while (v > 1) { v = v / 2; }
                    a[i] = v;
                }
            }
            """
        )
        region = list(acc.loop_regions.values())[0]
        assert region.kind == "kernel"
        assert region.local_size == 1  # vectorisation defeated

    def test_regular_tuned_loop_uses_vector_length(self):
        acc = compile_acc(
            """
            void f(__global int *a, int n) {
                #pragma acc parallel loop copy(a) gang vector
                for (int i = 0; i < n; i++) { a[i] = i; }
            }
            """
        )
        assert list(acc.loop_regions.values())[0].local_size == 256


class TestExecution:
    def test_sequential_fallback_is_still_correct(self):
        program = AccProgram(
            """
            void scan(__global float *a, int n) {
                #pragma acc parallel loop copy(a)
                for (int i = 1; i < n; i++) { a[i] = a[i - 1] + a[i]; }
            }
            """
        )
        a = [1.0, 2.0, 3.0, 4.0]
        program.run("scan", [a, 4])
        assert a == [1.0, 3.0, 6.0, 10.0]

    def test_collapse_covers_full_2d_space(self):
        program = AccProgram(
            """
            void fill(__global int *out, int h, int w) {
                #pragma acc parallel loop collapse(2) copyout(out) gang vector
                for (int y = 0; y < h; y++) {
                    for (int x = 0; x < w; x++) {
                        out[y * w + x] = y * 100 + x;
                    }
                }
            }
            """
        )
        out = [0] * 15
        program.run("fill", [out, 3, 5])
        assert out == [y * 100 + x for y in range(3) for x in range(5)]

    def test_data_region_keeps_arrays_resident(self):
        program = AccProgram(
            """
            void steps(__global float *a, int n, int reps) {
                #pragma acc data copy(a[0:n])
                for (int r = 0; r < reps; r++) {
                    #pragma acc parallel loop copy(a) gang vector
                    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
                }
            }
            """
        )
        a = [0.0] * 64
        result = program.run("steps", [a, 64, 5])
        assert a == [5.0] * 64
        # One copy in + one copy out despite 5 kernel launches.
        assert result.ledger.bytes_to_device == 64 * 4
        assert result.ledger.bytes_from_device == 64 * 4
        assert result.ledger.kernel_launches == 5

    def test_region_without_data_clause_copies_every_launch(self):
        program = AccProgram(
            """
            void steps(__global float *a, int n, int reps) {
                for (int r = 0; r < reps; r++) {
                    #pragma acc parallel loop copy(a) gang vector
                    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
                }
            }
            """
        )
        a = [0.0] * 64
        result = program.run("steps", [a, 64, 5])
        assert a == [5.0] * 64
        assert result.ledger.bytes_to_device == 5 * 64 * 4

    def test_reduction_min_and_sum(self):
        program = AccProgram(
            """
            float minof(__global float *a, int n) {
                float m = a[0];
                #pragma acc parallel loop reduction(min:m) copyin(a)
                for (int i = 0; i < n; i++) {
                    if (a[i] < m) { m = a[i]; }
                }
                return m;
            }
            float sumof(__global float *a, int n) {
                float s = 0.0;
                #pragma acc parallel loop reduction(+:s) copyin(a) gang vector
                for (int i = 0; i < n; i++) { s = s + a[i]; }
                return s;
            }
            """
        )
        data = [float(x) for x in (5, 3, 8, 1, 9, 2, 7, 4)]
        assert program.run("minof", [data, 8]).value == 1.0
        assert program.run("sumof", [data, 8]).value == sum(data)

    @pytest.mark.parametrize("gangs", [8, 512])
    def test_float_sum_reduction_is_exact_at_any_gang_count(self, gangs):
        """The partial-sum buffer takes the reduction variable's type;
        an int buffer truncated each gang's float partial sum."""
        program = AccProgram(
            f"""
            float sumof(__global float *a, int n) {{
                float s = 0.0;
                #pragma acc parallel loop reduction(+:s) copyin(a) num_gangs({gangs})
                for (int i = 0; i < n; i++) {{ s = s + a[i]; }}
                return s;
            }}
            """
        )
        assert program.run("sumof", [[0.25] * 4000, 4000]).value == 1000.0

    @pytest.mark.parametrize("n", [8, 512])
    def test_buffers_take_the_declared_type_not_the_host_values(self, n):
        """Int-valued host data for a ``float`` array is stored as float,
        on either tier and inside a data region."""
        program = AccProgram(
            """
            void doubleit(__global float *a, int n) {
                #pragma acc parallel loop copy(a) gang vector
                for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
            }
            void quarter(__global float *a, int n) {
                #pragma acc data copy(a[0:n])
                for (int r = 0; r < 2; r++) {
                    #pragma acc parallel loop copy(a) gang vector
                    for (int i = 0; i < n; i++) { a[i] = a[i] * 0.5; }
                }
            }
            """
        )
        doubled = list(range(n))
        program.run("doubleit", [doubled, n])
        assert doubled == [2.0 * i for i in range(n)]
        assert all(isinstance(v, float) for v in doubled)
        quartered = [1] * n
        program.run("quarter", [quartered, n])
        assert quartered == [0.25] * n

    def test_report_records_decisions(self):
        program = AccProgram(
            """
            void f(__global float *a, int n) {
                #pragma acc parallel loop copy(a)
                for (int i = 0; i < n; i++) { a[i] = 0.0; }
            }
            """
        )
        assert any("kernel" in line for line in program.report)

    def test_cpu_and_gpu_targets_agree(self):
        source = """
        void doubleit(__global float *a, int n) {
            #pragma acc parallel loop copy(a) gang vector
            for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
        }
        """
        a1 = [1.0, 2.0, 3.0, 4.0]
        a2 = list(a1)
        AccProgram(source, "GPU").run("doubleit", [a1, 4])
        AccProgram(source, "CPU").run("doubleit", [a2, 4])
        assert a1 == a2 == [2.0, 4.0, 6.0, 8.0]


class TestComposedTimeline:
    """Regions without ``async`` are synchronous: their kernels and
    transfers go through one in-order queue, and each region returns to
    the host only when its work is done."""

    # Every app's OpenACC variant but docrank on the GPU, which the
    # pragma compiler rejects (the paper's PGI failure).
    @pytest.mark.parametrize("app, device_type", [
        (app, device_type)
        for app in ("docrank", "lud", "mandelbrot", "matmul", "reduction")
        for device_type in ("GPU", "CPU")
        if (app, device_type) != ("docrank", "GPU")
    ])
    def test_elapsed_equals_busy_total(self, app, device_type):
        runner = importlib.import_module(f"repro.apps.{app}").run_openacc
        with fresh_clock() as clock:
            outcome = runner(device_type=device_type)
            attribution = clock.timeline.attribution()
            elapsed = clock.timeline.elapsed_ns
        assert attribution["overlap"] == 0.0
        assert attribution["idle"] == 0.0
        assert elapsed == pytest.approx(outcome.total_ns, rel=1e-12)
