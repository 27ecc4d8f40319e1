"""OpenCL actors end to end: kernel extraction, flattening, dispatch,
movability and device selection."""

import pytest

from repro import ensemble
from repro.actors import run_kernel
from repro.opencl import Context, Program, find_device, reset_platforms
from repro.runtime.oclenv import device_matrix, reset_device_matrix
from repro.runtime.vm import EnsembleVM


@pytest.fixture(autouse=True)
def _fresh():
    reset_platforms()
    reset_device_matrix()
    yield
    reset_device_matrix()
    reset_platforms()


def run_vm(source: str) -> tuple[list[str], EnsembleVM]:
    compiled = ensemble.compile_source(source)
    vm = EnsembleVM(compiled)
    vm.run(60)
    return vm.output, vm


SCALE_PROGRAM = """
type data_t is struct (
    real [] values;
    real factor
)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in {mov}data_t input;
    out {mov}data_t output
)
type hostI is interface (
  out settings_t requests;
  out {mov}data_t dout;
  in {mov}data_t din
)
type kI is interface(in settings_t requests)

stage home {{
  opencl <device_index=0, device_type={device}>
  actor Scale presents kI {{
    constructor() {{}}
    behaviour {{
      receive req from requests;
      receive d from req.input;
      i = get_global_id(0);
      d.values[i] := d.values[i] * d.factor;
      send d on req.output;
    }}
  }}

  actor Host presents hostI {{
    constructor() {{}}
    behaviour {{
      n = 8;
      ws = new integer[1] of n;
      gs = new integer[1] of 0;
      i = new in {mov}data_t;
      o = new out {mov}data_t;
      connect dout to i;
      connect o to din;
      config = new settings_t(ws, gs, i, o);
      v = new real[n] of 3.0;
      d = new data_t(v, 2.0);
      send config on requests;
      send d on dout;
      receive d from din;
      printReal(d.values[0]);
      printReal(d.values[7]);
      stop;
    }}
  }}

  boot {{
    h = new Host();
    k = new Scale();
    connect h.requests to k.requests;
  }}
}}
"""


class TestDispatch:
    @pytest.mark.parametrize("device", ["GPU", "CPU"])
    def test_scale_kernel_runs_on_device(self, device):
        output, _ = run_vm(
            SCALE_PROGRAM.format(mov="", device=device)
        )
        assert output == ["6.0", "6.0"]
        envs = device_matrix().environments()
        assert len(envs) == 1
        assert envs[0].device.device_type == device
        assert envs[0].context.ledger.kernel_launches == 1

    def test_movable_variant_skips_readback(self):
        output, _ = run_vm(SCALE_PROGRAM.format(mov="mov ", device="GPU"))
        assert output == ["6.0", "6.0"]
        ledger = device_matrix().combined_ledger()
        # values (8 floats) + the factor carrier go up; only the host
        # access at the end reads the values back.
        assert ledger.bytes_to_device == 8 * 4 + 4
        assert ledger.bytes_from_device == 8 * 4

    def test_nonmovable_variant_reads_back_eagerly(self):
        output, _ = run_vm(SCALE_PROGRAM.format(mov="", device="GPU"))
        assert output == ["6.0", "6.0"]
        ledger = device_matrix().combined_ledger()
        assert ledger.bytes_from_device >= 8 * 4

    @pytest.mark.parametrize("movable", [False, True])
    def test_vm_and_run_kernel_agree_on_zero_groupsize(self, movable):
        # Both front ends bind and launch through one KernelTarget: the
        # VM's DISPATCH of the paper's Listing 3 groupsize of 0 and a
        # run_kernel of the same kernel source on the same data must
        # move, launch and price exactly the same device work.
        output, vm = run_vm(
            SCALE_PROGRAM.format(mov="mov " if movable else "", device="GPU")
        )
        vm_ledger = device_matrix().combined_ledger()
        plan = vm.program.actors["Scale"].kernel_plan
        reset_device_matrix()
        reset_platforms()
        result = run_kernel(
            plan.kernel_source,
            plan.kernel_name,
            {"values": [3.0] * 8, "factor": [2.0]},
            worksize=[8],
            groupsize=[0],
            movable=movable,
        )
        values = result["values"].host()
        assert values == [6.0] * 8
        assert output == [repr(values[0]), repr(values[7])]
        ledger = device_matrix().combined_ledger()
        for name in (
            "bytes_to_device", "bytes_from_device", "h2d_ns", "d2h_ns",
            "kernel_ns", "kernel_launches",
        ):
            assert getattr(ledger, name) == getattr(vm_ledger, name), name
        assert ledger.bytes_to_device == 8 * 4 + 4
        assert ledger.kernel_launches == 1


class TestKernelExtraction:
    def test_plan_contents(self):
        compiled = ensemble.compile_source(
            SCALE_PROGRAM.format(mov="", device="GPU")
        )
        plan = compiled.actors["Scale"].kernel_plan
        assert plan.kernel_name == "scale_kernel"
        assert plan.device_type == "GPU"
        assert [p.name for p in plan.params] == ["values", "factor"]
        assert not plan.in_movable
        context = Context([find_device("GPU")])
        program = Program(context, plan.kernel_source).build()
        kernel = program.create_kernel(plan.kernel_name)
        assert kernel.written_params == {"values"}
        assert "values" in kernel.read_params

    def test_generated_source_is_valid_kernel_c(self):
        from repro import kernelc

        compiled = ensemble.compile_source(
            SCALE_PROGRAM.format(mov="", device="GPU")
        )
        plan = compiled.actors["Scale"].kernel_plan
        module = kernelc.compile_source(plan.kernel_source)
        kernel = module.kernel("scale_kernel")
        # Scalars travel as 1-element arrays (paper Section 6.1.2).
        assert str(kernel.params[1].type) == "global float[]"

    def test_scalar_writeback(self):
        source = """
type data_t is struct (integer counter)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output
)
type hostI is interface (
  out settings_t requests;
  out data_t dout;
  in data_t din
)
type kI is interface(in settings_t requests)
stage home {
  opencl actor Bump presents kI {
    constructor() {}
    behaviour {
      receive req from requests;
      receive d from req.input;
      d.counter := d.counter + 1;
      send d on req.output;
    }
  }
  actor Host presents hostI {
    constructor() {}
    behaviour {
      ws = new integer[1] of 1;
      gs = new integer[1] of 0;
      i = new in data_t;
      o = new out data_t;
      connect dout to i;
      connect o to din;
      config = new settings_t(ws, gs, i, o);
      d = new data_t(41);
      send config on requests;
      send d on dout;
      receive d from din;
      printInt(d.counter);
      stop;
    }
  }
  boot {
    h = new Host();
    b = new Bump();
    connect h.requests to b.requests;
  }
}
"""
        output, _ = run_vm(source)
        assert output == ["42"]

    def test_multidim_flattening_dims_params(self):
        from repro.apps.matmul.sources import ensemble_opencl_source

        compiled = ensemble.compile_source(ensemble_opencl_source(8))
        plan = compiled.actors["Multiply"].kernel_plan
        names = [p.name for p in plan.params]
        assert names == [
            "a", "a__dim1", "b", "b__dim1", "result", "result__dim1",
        ]
        assert "a[((y * a__dim1) + i)]" in plan.kernel_source

    def test_stage_function_lowered_into_kernel_source(self):
        source = """
type data_t is struct (real [] values)
type settings_t is opencl struct (
    integer [] worksize;
    integer [] groupsize;
    in data_t input;
    out data_t output
)
type hostI is interface (
  out settings_t requests;
  out data_t dout;
  in data_t din
)
type kI is interface(in settings_t requests)
stage home {
  function cube(real x) : real {
    return x * x * x;
  }
  opencl actor K presents kI {
    constructor() {}
    behaviour {
      receive req from requests;
      receive d from req.input;
      i = get_global_id(0);
      d.values[i] := cube(d.values[i]);
      send d on req.output;
    }
  }
  actor Host presents hostI {
    constructor() {}
    behaviour {
      ws = new integer[1] of 4;
      gs = new integer[1] of 0;
      i = new in data_t;
      o = new out data_t;
      connect dout to i;
      connect o to din;
      config = new settings_t(ws, gs, i, o);
      d = new data_t(new real[4] of 3.0);
      send config on requests;
      send d on dout;
      receive d from din;
      printReal(d.values[2]);
      stop;
    }
  }
  boot {
    h = new Host();
    k = new K();
    connect h.requests to k.requests;
  }
}
"""
        compiled = ensemble.compile_source(source)
        plan = compiled.actors["K"].kernel_plan
        # The compiler generated a C equivalent of the stage function
        # inside the kernel source string (paper Section 6.1.3).
        assert "float cube(float x)" in plan.kernel_source
        vm = EnsembleVM(compiled)
        vm.run(60)
        assert vm.output == ["27.0"]
