"""Ensemble language semantics, exercised through compiled programs."""

import pytest

from repro import ensemble


def run(source: str) -> str:
    return ensemble.run_source(source, timeout=30).text


def single_actor(body: str, state: str = "", extra: str = "") -> str:
    """Wrap *body* as the behaviour of a lone actor that runs once."""
    return f"""
type mainI is interface(out integer unused)
stage home {{
  {extra}
  actor Main presents mainI {{
    {state}
    constructor() {{}}
    behaviour {{
      {body}
      stop;
    }}
  }}
  boot {{
    m = new Main();
  }}
}}
"""


class TestExpressions:
    def test_integer_arithmetic(self):
        out = run(single_actor("printInt(7 + 3 * 2 - 8 / 2 % 3);"))
        assert out == str(7 + 3 * 2 - 1)

    def test_integer_division_truncates(self):
        assert run(single_actor("printInt(7 / 2);")) == "3"
        assert run(single_actor("printInt(0 - 7 / 2);")) == "-3"

    def test_real_arithmetic_and_promotion(self):
        assert run(single_actor("printReal(1 / 2 + 0.25);")) == "0.25"
        assert run(single_actor("printReal(1 / 2.0);")) == "0.5"

    def test_boolean_logic(self):
        body = """
        a = true;
        b = false;
        printBool(a and not b);
        printBool(a and b or true);
        """
        assert run(single_actor(body)) == "truetrue"

    def test_comparisons(self):
        body = "printBool(1 < 2); printBool(2.5 >= 2.5); printBool(1 == 2);"
        assert run(single_actor(body)) == "truetruefalse"

    def test_string_literals_with_escapes(self):
        assert run(single_actor('printString("a\\tb\\n");')) == "a\tb\n"

    def test_math_builtins(self):
        assert run(single_actor("printReal(sqrt(9.0));")) == "3.0"
        assert run(single_actor("printReal(fmax(1.0, 2.5));")) == "2.5"
        # A float builtin converts an int argument: floor(7) is 7.0.
        assert run(single_actor("printReal(floor(7) / 2);")) == "3.5"

    def test_conversions(self):
        body = "printInt(realToInt(3.7)); printReal(intToReal(2));"
        assert run(single_actor(body)) == "32.0"


class TestStatements:
    def test_bind_vs_assign(self):
        body = "x = 1; x := x + 41; printInt(x);"
        assert run(single_actor(body)) == "42"

    def test_if_else_chain(self):
        body = """
        x = 5;
        if x > 10 then { printString("big"); }
        else if x > 3 then { printString("mid"); }
        else { printString("small"); }
        """
        assert run(single_actor(body)) == "mid"

    def test_for_is_inclusive(self):
        body = "s = 0; for i = 1 .. 4 do { s := s + i; } printInt(s);"
        assert run(single_actor(body)) == "10"

    def test_for_with_empty_range(self):
        body = "s = 0; for i = 5 .. 4 do { s := s + 1; } printInt(s);"
        assert run(single_actor(body)) == "0"

    def test_while(self):
        body = "x = 1; while x < 100 do { x := x * 2; } printInt(x);"
        assert run(single_actor(body)) == "128"

    def test_nested_loops_scope(self):
        body = """
        total = 0;
        for i = 0 .. 2 do {
          for j = 0 .. 2 do { total := total + i * 3 + j; }
        }
        printInt(total);
        """
        assert run(single_actor(body)) == str(sum(i * 3 + j for i in range(3) for j in range(3)))


class TestArraysAndStructs:
    def test_array_fill_and_index(self):
        body = """
        a = new integer[4] of 7;
        a[2] := 9;
        printInt(a[0] + a[2]);
        printInt(length(a));
        """
        assert run(single_actor(body)) == "164"

    def test_2d_arrays(self):
        body = """
        m = new real[2][3] of 1.5;
        m[1][2] := 4.5;
        printReal(m[0][0] + m[1][2]);
        printInt(length(m));
        printInt(length(m[0]));
        """
        assert run(single_actor(body)) == "6.023"

    def test_struct_construction_and_fields(self):
        extra = ""
        source = f"""
type point_t is struct (real x; real y)
type mainI is interface(out integer unused)
stage home {{
  actor Main presents mainI {{
    constructor() {{}}
    behaviour {{
      p = new point_t(1.5, 2.5);
      p.x := p.x + p.y;
      printReal(p.x);
      stop;
    }}
  }}
  boot {{ m = new Main(); }}
}}
"""
        assert run(source) == "4.0"

    def test_struct_with_array_field(self):
        source = """
type box_t is struct (integer [] items; integer count)
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    constructor() {}
    behaviour {
      b = new box_t(new integer[3] of 2, 3);
      b.items[1] := 5;
      total = 0;
      for i = 0 .. b.count - 1 do { total := total + b.items[i]; }
      printInt(total);
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        assert run(source) == "9"


class TestFunctionsAndState:
    def test_stage_functions(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  function fib(integer n) : integer {
    if n < 2 then { return n; }
    return fib(n - 1) + fib(n - 2);
  }
  actor Main presents mainI {
    constructor() {}
    behaviour {
      printInt(fib(10));
      stop;
    }
  }
  boot { m = new Main(); }
}
"""
        assert run(source) == "55"

    def test_actor_state_persists_across_iterations(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    total = 0;
    constructor() {}
    behaviour {
      total := total + 1;
      if total == 3 then {
        printInt(total);
        stop;
      }
    }
  }
  boot { m = new Main(); }
}
"""
        assert run(source) == "3"

    def test_constructor_arguments(self):
        source = """
type mainI is interface(out integer unused)
stage home {
  actor Main presents mainI {
    base = 0;
    constructor(integer start) { base := start; }
    behaviour {
      printInt(base + 2);
      stop;
    }
  }
  boot { m = new Main(40); }
}
"""
        assert run(source) == "42"


class TestActorCommunication:
    def test_ping_pong(self):
        source = """
type pingI is interface(out integer tx; in integer rx)
type pongI is interface(in integer rx; out integer tx)
stage home {
  actor Ping presents pingI {
    constructor() {}
    behaviour {
      send 1 on tx;
      receive reply from rx;
      printInt(reply);
      stop;
    }
  }
  actor Pong presents pongI {
    constructor() {}
    behaviour {
      receive v from rx;
      send v + 41 on tx;
    }
  }
  boot {
    a = new Ping();
    b = new Pong();
    connect a.tx to b.rx;
    connect b.tx to a.rx;
  }
}
"""
        assert run(source) == "42"

    def test_dynamic_channels(self):
        source = """
type srvI is interface(in integer jobs)
type cliI is interface(out integer jobs)
stage home {
  actor Client presents cliI {
    constructor() {}
    behaviour {
      send 20 on jobs;
      send 22 on jobs;
      stop;
    }
  }
  actor Server presents srvI {
    total = 0;
    constructor() {}
    behaviour {
      receive v from jobs;
      total := total + v;
      if total == 42 then {
        printInt(total);
        stop;
      }
    }
  }
  boot {
    c = new Client();
    s = new Server();
    connect c.jobs to s.jobs;
  }
}
"""
        assert run(source) == "42"

    def test_struct_messages_are_copied(self):
        source = """
type msg_t is struct (integer [] data)
type txI is interface(out msg_t out1)
type rxI is interface(in msg_t in1)
stage home {
  actor Tx presents txI {
    constructor() {}
    behaviour {
      m = new msg_t(new integer[2] of 5);
      send m on out1;
      m.data[0] := 99;
      printInt(m.data[0]);
      stop;
    }
  }
  actor Rx presents rxI {
    constructor() {}
    behaviour {
      receive m from in1;
      printInt(m.data[0]);
      stop;
    }
  }
  boot {
    t = new Tx();
    r = new Rx();
    connect t.out1 to r.in1;
  }
}
"""
        out = run(source)
        assert sorted(out) == ["5", "9", "9"]  # 99 and 5 in either order
