"""VM internals: value types, natives, bytecode-level behaviour."""

import re

import pytest

from repro import ensemble
from repro.apps.lud import runners as lud
from repro.errors import RuntimeFault, VMError
from repro.runtime import ManagedArray
from repro.runtime.values import (
    ArrayView,
    StructValue,
    index_value,
    length_of,
    store_value,
)
from repro.runtime.vm import BYTECODE_NS, EnsembleVM, _binop
from repro.trace import tracing


class TestArrayViews:
    def test_partial_index_yields_view(self):
        array = ManagedArray.zeros((3, 4))
        view = index_value(array, 1)
        assert isinstance(view, ArrayView)
        assert view.ndim == 1
        assert len(view) == 4

    def test_view_reads_and_writes_through(self):
        array = ManagedArray.zeros((2, 2))
        view = index_value(array, 1)
        view.set(0, 7.0)
        assert array[1, 0] == 7.0
        assert view.index(0) == 7.0

    def test_deep_view_chain(self):
        array = ManagedArray.zeros((2, 3, 4), "int")
        view = index_value(index_value(array, 1), 2)
        store_value(view, 3, 9)
        assert array[1, 2, 3] == 9

    def test_assign_into_partial_view_rejected(self):
        array = ManagedArray.zeros((2, 3, 4))
        view = index_value(array, 0)
        with pytest.raises(RuntimeFault):
            view.set(1, 2.0)  # still 2-D

    def test_length_of(self):
        array = ManagedArray.zeros((5, 2))
        assert length_of(array) == 5
        assert length_of(index_value(array, 0)) == 2
        with pytest.raises(RuntimeFault):
            length_of(42)

    def test_index_non_array_rejected(self):
        with pytest.raises(RuntimeFault):
            index_value(3, 0)


class TestStructValue:
    def test_get_set(self):
        struct = StructValue("p", {"x": 1.0, "y": 2.0})
        struct.set("x", 5.0)
        assert struct.get("x") == 5.0

    def test_unknown_field(self):
        struct = StructValue("p", {"x": 1.0})
        with pytest.raises(RuntimeFault):
            struct.get("z")
        with pytest.raises(RuntimeFault):
            struct.set("z", 0)

    def test_clone_deep_copies_data_fields(self):
        inner = ManagedArray([1.0], (1,))
        struct = StructValue("p", {"a": inner, "n": 3})
        clone = struct.clone()
        clone.get("a")[0] = 9.0
        assert inner[0] == 1.0
        assert clone.get("n") == 3


class TestVmBinops:
    @pytest.mark.parametrize(
        "op, l, r, expected",
        [
            ("+", 2, 3, 5),
            ("-", 2.5, 1.0, 1.5),
            ("*", 3, 4, 12),
            ("/", 7, 2, 3),
            ("/", -7, 2, -3),
            ("/", 7.0, 2, 3.5),
            ("%", 7, 3, 1),
            ("%", -7, 3, -1),
            ("==", 1, 1, True),
            ("!=", 1, 2, True),
            ("<", 1, 2, True),
            ("<=", 2, 2, True),
            (">", 3, 2, True),
            (">=", 1, 2, False),
            ("and", True, False, False),
            ("or", False, True, True),
        ],
    )
    def test_semantics(self, op, l, r, expected):
        assert _binop(op, l, r) == expected

    def test_unknown_op(self):
        with pytest.raises(VMError):
            _binop("**", 2, 3)


class TestVmExecution:
    def _vm(self, source):
        return EnsembleVM(ensemble.compile_source(source))

    def test_instruction_cost_charged(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour {
      x = 0;
      for i = 1 .. 100 do { x := x + i; }
      printInt(x);
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        vm = self._vm(source)
        vm.run(30)
        assert vm.output == ["5050"]
        # every executed bytecode was priced
        assert vm.ledger.host_ns >= 100 * 3 * BYTECODE_NS

    def test_double_boot_rejected(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour { stop; }
  }
  boot { m = new Main(); }
}
"""
        vm = self._vm(source)
        vm.boot()
        with pytest.raises(VMError):
            vm.boot()

    def test_fill_natives_match_python_formula(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour {
      a = new real[3][4] of 0.0;
      fillPattern2D(a, 7, 3, 0, 11, -5, 1.0);
      printReal(a[2][3]);
      v = new real[8] of 0.0;
      fillPattern1D(v, 5, 1, 7, 0, 2.0);
      printReal(v[3]);
      t = new integer[2][3] of 0;
      fillPatternCond2D(t, 2, 1, 2, 1, 1, 5, 1);
      printInt(t[1][1]);
      printInt(t[1][2]);
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        vm = self._vm(source)
        vm.run(30)
        expected_a = float((2 * 7 + 3 * 3) % 11 - 5)
        expected_v = float((3 * 5 + 1) % 7) / 2.0
        t11 = (1 * 1 + 1 * 1) % 5 + 1 if (1 * 2 + 1) % 2 == 0 else 0
        t12 = (1 + 2) % 5 + 1 if (1 * 2 + 2) % 2 == 0 else 0
        assert vm.output == [
            repr(expected_a), repr(expected_v), str(t11), str(t12)
        ]

    def test_bulk_natives_charge_on_the_calling_actor_track(self):
        with tracing() as tracer:
            lud.run_ensemble(8)
        fills = [s for s in tracer.spans if s.name == "vm.native_fill"]
        # Control fills the matrix and checksums the result; both
        # charges belong on its track, not on the stage's.
        assert len(fills) == 2
        for span in fills:
            assert re.fullmatch(r"vm/Control-\d+", span.track)
            assert any(
                s.name == "vm.bytecode" for s in tracer.spans_on(span.track)
            )

    def test_checksum_native_matches_manual_loop(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour {
      v = new real[5] of 0.0;
      for i = 0 .. 4 do { v[i] := intToReal(i + 1); }
      printReal(checksumWeighted(v));
      w = new integer[3] of 2;
      printInt(checksumWeighted(w));
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        vm = self._vm(source)
        vm.run(30)
        expected_real = sum((i % 97 + 1) * (i + 1) for i in range(5))
        expected_int = sum((i % 97 + 1) * 2 for i in range(3))
        assert vm.output == [repr(float(expected_real)), str(expected_int)]

    def test_min_element_native(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour {
      v = new real[4] of 9.0;
      v[2] := 1.5;
      printReal(minElement(v));
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        vm = self._vm(source)
        vm.run(30)
        assert vm.output == ["1.5"]

    def test_buffered_channel_declared_in_interface(self):
        compiled = ensemble.compile_source(
            """
type aI is interface(out integer tx)
type bI is interface(in integer rx[8])
stage home {
  actor A presents aI {
    constructor() {}
    behaviour { send 1 on tx; stop; }
  }
  actor B presents bI {
    constructor() {}
    behaviour { receive v from rx; printInt(v); stop; }
  }
  boot {
    a = new A();
    b = new B();
    connect a.tx to b.rx;
  }
}
"""
        )
        spec = dict(
            (name, buffer)
            for name, _d, _m, buffer in compiled.actors["B"].channel_specs
        )
        assert spec["rx"] == 8
        vm = EnsembleVM(compiled)
        vm.run(30)
        assert vm.output == ["1"]

    def test_clock_millis_native_reads_simulated_time(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour {
      t = clockMillis();
      printBool(t >= 0);
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        vm = self._vm(source)
        vm.run(30)
        assert vm.output == ["true"]

    def test_random_natives_are_deterministic_per_run(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour {
      printInt(randomInt(1000));
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        vm1 = self._vm(source)
        vm1.run(30)
        vm2 = self._vm(source)
        vm2.run(30)
        assert vm1.output == vm2.output
