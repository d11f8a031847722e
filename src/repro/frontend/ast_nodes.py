"""AST for the C subset."""

from dataclasses import dataclass, field


# --- Expressions -----------------------------------------------------------

@dataclass
class Num:
    value: float
    line: int = 0


@dataclass
class Var:
    name: str
    line: int = 0


@dataclass
class Index:
    """``array[subscript]``."""

    array: str
    subscript: object
    line: int = 0


@dataclass
class BinOp:
    op: str
    left: object
    right: object
    line: int = 0


@dataclass
class UnaryOp:
    op: str
    operand: object
    line: int = 0


@dataclass
class Ternary:
    condition: object
    if_true: object
    if_false: object
    line: int = 0


@dataclass
class Call:
    """Intrinsic call (sqrt, fabs, min, max, sigmoid, ...)."""

    name: str
    args: list
    line: int = 0


# --- Statements ------------------------------------------------------------

@dataclass
class Assign:
    """``target = value`` or ``target op= value``; target is Var/Index."""

    target: object
    value: object
    op: str = "="    # '=', '+=', '-=', '*='
    line: int = 0


@dataclass
class Declare:
    """``double acc = 0;`` — scalar declaration with initializer."""

    ctype: str
    name: str
    init: object = None
    line: int = 0


@dataclass
class For:
    """``for (init; cond; step) body`` with pragma annotations."""

    var: str
    start: object
    bound: object       # exclusive upper bound (cond is var < bound)
    step: int
    body: list = field(default_factory=list)
    offload: bool = False
    line: int = 0


@dataclass
class If:
    condition: object
    then_body: list = field(default_factory=list)
    else_body: list = field(default_factory=list)
    line: int = 0


@dataclass
class Block:
    statements: list = field(default_factory=list)
    config: bool = False
    decouple: bool = False
    line: int = 0


@dataclass
class Param:
    """Function parameter: pointer (array) or integer scalar."""

    ctype: str
    name: str
    is_pointer: bool = False


@dataclass
class Function:
    name: str
    params: list = field(default_factory=list)
    body: Block = None
    line: int = 0

    def array_params(self):
        return [p.name for p in self.params if p.is_pointer]
