"""Tests for the C-subset frontend."""

import copy

import pytest

from repro.compiler.kernel import VariantParams
from repro.errors import ParseError, SemanticError
from repro.frontend import compile_c, parse, tokenize
from repro.frontend.affine import analyze_affine, evaluate_constant
from repro.frontend.ast_nodes import BinOp, For, Num, Var
from repro.ir import execute_scope

FIG5 = """
void row_scale(double *a, double *b, double *c, int n) {
  #pragma dsa config
  {
    #pragma dsa decouple
    for (int i = 0; i < n; ++i) {
      #pragma dsa offload
      for (int j = 0; j < n; ++j) {
        c[i * n + j] = a[i * n + j] * b[j];
      }
    }
  }
}
"""


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("int x = 42;")
        kinds = [t.kind for t in tokens]
        assert kinds == ["keyword", "name", "op", "number", "op", "eof"]

    def test_pragma_recognized(self):
        tokens = tokenize("#pragma dsa offload\nfor")
        assert tokens[0].kind == "pragma"
        assert tokens[0].value == "offload"

    def test_non_dsa_pragma_ignored(self):
        tokens = tokenize("#pragma omp parallel\nx")
        assert tokens[0].kind == "name"

    def test_comments_stripped(self):
        tokens = tokenize("a // comment\n /* block\n comment */ b")
        names = [t.value for t in tokens if t.kind == "name"]
        assert names == ["a", "b"]

    def test_numbers(self):
        tokens = tokenize("1 2.5 3e4 0.5f")
        values = [t.value for t in tokens if t.kind == "number"]
        assert values == ["1", "2.5", "3e4", "0.5f"]

    def test_line_numbers(self):
        tokens = tokenize("a\nb\nc")
        assert [t.line for t in tokens[:3]] == [1, 2, 3]

    def test_junk_raises(self):
        with pytest.raises(ParseError):
            tokenize("int x = @;")


class TestParser:
    def test_fig5_structure(self):
        functions = parse(FIG5)
        assert len(functions) == 1
        function = functions[0]
        assert function.name == "row_scale"
        assert [p.name for p in function.params] == ["a", "b", "c", "n"]
        assert [p.name for p in function.params if p.is_pointer] == [
            "a", "b", "c",
        ]
        block = function.body.statements[0]
        assert block.config
        inner_block = block.statements[0]
        assert inner_block.decouple
        outer_loop = inner_block.statements[0]
        assert isinstance(outer_loop, For) and not outer_loop.offload
        assert outer_loop.body[0].offload

    def test_offload_must_precede_for(self):
        with pytest.raises(ParseError):
            parse("""
            void f(double *x, int n) {
              #pragma dsa offload
              x[0] = 1.0;
            }
            """)

    def test_expression_precedence(self):
        functions = parse("""
        void f(double *x, int n) {
          x[0] = 1.0 + 2.0 * 3.0;
        }
        """)
        assign = functions[0].body.statements[0]
        assert isinstance(assign.value, BinOp)
        assert assign.value.op == "+"
        assert assign.value.right.op == "*"

    def test_ternary(self):
        functions = parse("""
        void f(double *x, int n) {
          x[0] = n > 1 ? 1.0 : 2.0;
        }
        """)
        from repro.frontend.ast_nodes import Ternary

        assert isinstance(functions[0].body.statements[0].value, Ternary)

    def test_unknown_intrinsic_rejected(self):
        with pytest.raises(ParseError):
            parse("void f(double *x, int n) { x[0] = warp(1.0); }")

    def test_nonconstant_step_rejected(self):
        with pytest.raises(ParseError):
            parse("""
            void f(double *x, int n) {
              for (int i = 0; i < n; i += n) { x[i] = 0.0; }
            }
            """)


class TestAffine:
    def test_linear_subscript(self):
        functions = parse("""
        void f(double *x, int n) {
          for (int i = 0; i < n; ++i) { x[3 * i + 5] = 0.0; }
        }
        """)
        loop = functions[0].body.statements[0]
        subscript = loop.body[0].target.subscript
        affine = analyze_affine(subscript, {"n": 10}, ["i"])
        assert affine.constant == 5
        assert affine.coeff("i") == 3

    def test_two_variable_subscript(self):
        affine = analyze_affine(
            BinOp("+", BinOp("*", Var("i"), Num(8)), Var("j")),
            {}, ["i", "j"],
        )
        assert affine.coeff("i") == 8
        assert affine.coeff("j") == 1

    def test_nonaffine_returns_none(self):
        assert analyze_affine(
            BinOp("*", Var("i"), Var("j")), {}, ["i", "j"]
        ) is None

    def test_constant_folding(self):
        assert evaluate_constant(
            BinOp("*", Num(4), Var("n")), {"n": 8}
        ) == 32
        with pytest.raises(SemanticError):
            evaluate_constant(Var("i"), {})


class TestLowering:
    def check(self, source, bindings, arrays, params=None, tol=1e-9):
        workload = compile_c(source, bindings=bindings, arrays=arrays)
        memory = workload.make_memory()
        reference = copy.deepcopy(memory)
        scope = workload.build(params or VariantParams())
        execute_scope(scope, memory)
        workload.reference(reference)
        import math

        for array in memory:
            assert all(
                math.isclose(float(x), float(y), rel_tol=tol, abs_tol=tol)
                for x, y in zip(memory[array], reference[array])
            ), array
        return workload

    def test_fig5_example(self):
        workload = self.check(
            FIG5, {"n": 8}, {"a": 64, "b": 8, "c": 64},
            VariantParams(unroll=4),
        )
        assert workload.space.unroll_factors == (1, 2, 4, 8)

    def test_accumulator_reduction(self):
        self.check("""
        void rowsums(double *a, double *y, int n, int m) {
          #pragma dsa config
          {
            for (int i = 0; i < n; ++i) {
              double acc = 0;
              #pragma dsa offload
              for (int j = 0; j < m; ++j) {
                acc += a[i * m + j];
              }
              y[i] = acc;
            }
          }
        }
        """, {"n": 4, "m": 8}, {"a": 32, "y": 4},
            VariantParams(unroll=2))

    def test_integer_kernel(self):
        workload = compile_c("""
        void saxpy_int(int *x, int *y, int n) {
          #pragma dsa config
          {
            #pragma dsa offload
            for (int i = 0; i < n; ++i) {
              y[i] = 3 * x[i] + y[i];
            }
          }
        }
        """, bindings={"n": 8}, arrays={"x": 8, "y": 8})
        memory = workload.make_memory()
        reference = copy.deepcopy(memory)
        execute_scope(workload.build(VariantParams()), memory)
        workload.reference(reference)
        assert memory["y"] == reference["y"]

    def test_gather_variant_space(self):
        workload = compile_c("""
        void gather(double *x, int *idx, double *y, int n) {
          #pragma dsa config
          {
            #pragma dsa offload
            for (int i = 0; i < n; ++i) {
              y[i] = x[idx[i]];
            }
          }
        }
        """, bindings={"n": 8}, arrays={"x": 8, "idx": 8, "y": 8})
        assert workload.space.has_indirect
        self_check = workload.make_memory()
        reference = copy.deepcopy(self_check)
        execute_scope(
            workload.build(VariantParams(use_indirect=True)), self_check
        )
        workload.reference(reference)
        assert self_check["y"] == reference["y"]

    def test_if_else_select_conversion(self):
        self.check("""
        void relu(double *x, double *y, int n) {
          #pragma dsa config
          {
            #pragma dsa offload
            for (int i = 0; i < n; ++i) {
              double v = x[i];
              if (v > 0.0) { y[i] = v; } else { y[i] = 0.0; }
            }
          }
        }
        """, {"n": 8}, {"x": 8, "y": 8}, VariantParams(unroll=2))

    def test_intrinsics(self):
        self.check("""
        void mag(double *x, double *y, int n) {
          #pragma dsa config
          {
            #pragma dsa offload
            for (int i = 0; i < n; ++i) {
              y[i] = sqrt(fabs(x[i]) + 1.0);
            }
          }
        }
        """, {"n": 8}, {"x": 8, "y": 8})

    def test_missing_offload_rejected(self):
        with pytest.raises(SemanticError):
            compile_c("""
            void f(double *x, int n) {
              for (int i = 0; i < n; ++i) { x[i] = 0.0; }
            }
            """, bindings={"n": 4}, arrays={"x": 4})

    def test_missing_binding_rejected(self):
        with pytest.raises(SemanticError):
            compile_c(FIG5, bindings={}, arrays={"a": 4, "b": 2, "c": 4})

    def test_missing_array_rejected(self):
        with pytest.raises(SemanticError):
            compile_c(FIG5, bindings={"n": 2}, arrays={"a": 4})

    def test_nonaffine_store_rejected(self):
        with pytest.raises((SemanticError, Exception)):
            compile_c("""
            void f(double *x, int n) {
              #pragma dsa config
              {
                #pragma dsa offload
                for (int i = 0; i < n; ++i) {
                  x[i * i] = 0.0;
                }
              }
            }
            """, bindings={"n": 4}, arrays={"x": 16})

    def test_function_selection(self):
        source = FIG5 + """
        void other(double *z, int n) {
          #pragma dsa config
          {
            #pragma dsa offload
            for (int i = 0; i < n; ++i) { z[i] = z[i] + 1.0; }
          }
        }
        """
        workload = compile_c(
            source, bindings={"n": 4}, arrays={"z": 4},
            function="other",
        )
        assert workload.name == "other"
        with pytest.raises(SemanticError):
            compile_c(source, bindings={"n": 4}, arrays={"z": 4},
                      function="missing")
