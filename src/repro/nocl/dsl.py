"""The kernel-side DSL: types, intrinsics, and the ``@kernel`` decorator.

Kernels are plain Python functions over a restricted subset of the
language.  They are *never executed by the Python interpreter*: the
``@kernel`` decorator captures the function's AST and signature, and the
compiler translates it to the simulator's ISA.  The names below (``i32``,
``ptr``, ``threadIdx`` and friends) exist so kernels read like CUDA and so
type annotations resolve; inside a kernel body they are recognised
syntactically by the frontend.

Example::

    @kernel
    def vecadd(n: i32, a: ptr[i32], b: ptr[i32], c: ptr[i32]):
        i = threadIdx.x + blockIdx.x * blockDim.x
        while i < n:
            c[i] = a[i] + b[i]
            i += blockDim.x * gridDim.x
"""

import ast
import inspect
import textwrap


class ScalarType:
    """A scalar value type (int of some width/signedness, or float32)."""

    def __init__(self, name, width, signed, is_float=False):
        self.name = name
        self.width = width          # bytes
        self.signed = signed
        self.is_float = is_float

    def __repr__(self):
        return self.name

    def __call__(self, _value):
        raise TypeError(
            "%s(...) casts are only meaningful inside kernels" % self.name)


i8 = ScalarType("i8", 1, True)
u8 = ScalarType("u8", 1, False)
i16 = ScalarType("i16", 2, True)
u16 = ScalarType("u16", 2, False)
i32 = ScalarType("i32", 4, True)
u32 = ScalarType("u32", 4, False)
f32 = ScalarType("f32", 4, True, is_float=True)

SCALAR_TYPES = {t.name: t for t in (i8, u8, i16, u16, i32, u32, f32)}


class PtrType:
    """A pointer-to-array-of-``elem`` parameter type."""

    def __init__(self, elem):
        if not isinstance(elem, ScalarType):
            raise TypeError("ptr element must be a scalar type")
        self.elem = elem

    def __repr__(self):
        return "ptr[%s]" % self.elem


class _PtrFactory:
    def __getitem__(self, elem):
        return PtrType(elem)


ptr = _PtrFactory()


class _IndexDim:
    """Placeholder for ``threadIdx.x`` etc.; only valid inside kernels."""

    def __init__(self, name):
        self._name = name

    @property
    def x(self):
        raise RuntimeError(
            "%s.x can only be used inside a @kernel body" % self._name)


threadIdx = _IndexDim("threadIdx")
blockIdx = _IndexDim("blockIdx")
blockDim = _IndexDim("blockDim")
gridDim = _IndexDim("gridDim")

#: Names the frontend recognises as launch-geometry reads.
BUILTIN_DIMS = ("threadIdx", "blockIdx", "blockDim", "gridDim")


class KernelParam:
    """One declared kernel parameter."""

    def __init__(self, name, ty):
        self.name = name
        self.ty = ty
        self.is_pointer = isinstance(ty, PtrType)

    def __repr__(self):
        return "%s: %r" % (self.name, self.ty)


class KernelSource:
    """A parsed-but-uncompiled kernel: AST + signature."""

    def __init__(self, func):
        self.func = func
        self.name = func.__name__
        source = textwrap.dedent(inspect.getsource(func))
        #: Dedented source text; ``lineno`` fields in :attr:`tree` are
        #: 1-based indices into these lines (the profiler renders them).
        self.source_text = source
        module = ast.parse(source)
        funcs = [node for node in module.body
                 if isinstance(node, ast.FunctionDef)]
        if len(funcs) != 1:
            raise ValueError("expected exactly one function definition")
        self.tree = funcs[0]
        self.params = self._parse_params(func)

    @classmethod
    def from_source(cls, source):
        """Build a kernel from a source string (for generated kernels).

        The annotations are resolved syntactically: scalar type names and
        ``ptr[...]`` subscripts.
        """
        self = cls.__new__(cls)
        self.func = None
        self.source_text = textwrap.dedent(source)
        module = ast.parse(self.source_text)
        funcs = [node for node in module.body
                 if isinstance(node, ast.FunctionDef)]
        if len(funcs) != 1:
            raise ValueError("expected exactly one function definition")
        self.tree = funcs[0]
        self.name = self.tree.name
        self.params = []
        for arg in self.tree.args.args:
            if arg.annotation is None:
                raise TypeError(
                    "kernel parameter %r needs a type annotation" % arg.arg)
            ty = _annotation_to_type(arg.annotation)
            if isinstance(ty, ScalarType) and ty.width != 4:
                raise TypeError(
                    "scalar kernel parameters must be 32-bit (%r)" % arg.arg)
            self.params.append(KernelParam(arg.arg, ty))
        return self

    @staticmethod
    def _parse_params(func):
        params = []
        signature = inspect.signature(func)
        for name, param in signature.parameters.items():
            annotation = param.annotation
            if annotation is inspect.Parameter.empty:
                raise TypeError(
                    "kernel parameter %r needs a type annotation" % name)
            if not isinstance(annotation, (ScalarType, PtrType)):
                raise TypeError(
                    "kernel parameter %r has unsupported type %r"
                    % (name, annotation))
            if isinstance(annotation, ScalarType) and annotation.width != 4:
                raise TypeError(
                    "scalar kernel parameters must be 32-bit (%r)" % name)
            params.append(KernelParam(name, annotation))
        return params

    def __repr__(self):
        return "<kernel %s(%s)>" % (
            self.name, ", ".join(repr(p) for p in self.params))


def _annotation_to_type(node):
    """Resolve a syntactic annotation: a scalar name or ptr[scalar]."""
    if isinstance(node, ast.Name) and node.id in SCALAR_TYPES:
        return SCALAR_TYPES[node.id]
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name) and node.value.id == "ptr"
            and isinstance(node.slice, ast.Name)
            and node.slice.id in SCALAR_TYPES):
        return PtrType(SCALAR_TYPES[node.slice.id])
    raise TypeError("unsupported parameter annotation %s" % ast.dump(node))


def kernel(func):
    """Decorator marking a function as a GPU kernel (parsed, not run)."""
    return KernelSource(func)
