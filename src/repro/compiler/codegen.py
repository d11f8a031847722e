"""Control-program generation.

"The code generator removes the operations offloaded to the spatial
architecture, encodes the decoupled data access/communication in
controller intrinsics, and injects memory fences to enforce the
semantics" (Section IV-C).

The control program is the software half of the hardware/software
interface: an ordered list of stream-dataflow commands the control core
issues. The cycle-level simulator executes it; the hardware generator's
bitstream is its CONFIG payload.
"""

import enum
from dataclasses import dataclass, field

from repro.ir.region import as_stream_list
from repro.ir.stream import ConstStream, RecurrenceStream


class CommandKind(enum.Enum):
    CONFIG = "config"          # load the spatial-fabric bitstream
    ISSUE_STREAM = "stream"    # bind a stream to (memory/engine, port)
    ISSUE_CONST = "const"      # feed a constant sequence to a port
    ISSUE_RECUR = "recur"      # connect output port -> input port
    BARRIER = "barrier"        # wait for listed regions to drain
    WAIT_ALL = "wait"          # wait for everything (scope epilogue)


@dataclass
class Command:
    """One control-core command."""

    kind: CommandKind
    region: str = ""
    port: str = ""
    memory: str = ""
    stream: object = None
    issue_cycles: int = 4      # control-core cycles to issue this command

    def __repr__(self):
        body = f"{self.region}:{self.port}" if self.port else self.region
        return f"<{self.kind.value} {body}>".strip()


@dataclass
class ControlProgram:
    """The generated command list for one configuration scope."""

    scope_name: str
    commands: list = field(default_factory=list)

    def stream_commands(self):
        return [
            c for c in self.commands
            if c.kind in (CommandKind.ISSUE_STREAM, CommandKind.ISSUE_CONST,
                          CommandKind.ISSUE_RECUR)
        ]

    def __iter__(self):
        return iter(self.commands)

    def __len__(self):
        return len(self.commands)


def generate_control_program(scope, schedule):
    """Emit the command list for a scheduled scope.

    Commands appear in program order: configuration first, then each
    region's stream issues (reads before writes so data is flowing when
    compute fires), with barriers where the scope demands serialization.
    """
    program = ControlProgram(scope_name=scope.name)
    program.commands.append(
        Command(CommandKind.CONFIG, region=scope.name, issue_cycles=1)
    )
    barrier_set = set(scope.barriers)
    for region in scope.regions:
        _emit_region(program, schedule, region)
        if region.name in barrier_set:
            program.commands.append(
                Command(CommandKind.BARRIER, region=region.name,
                        issue_cycles=1)
            )
    program.commands.append(
        Command(CommandKind.WAIT_ALL, region=scope.name, issue_cycles=1)
    )
    return program


def _emit_region(program, schedule, region):
    for port, binding in region.input_streams.items():
        for stream in as_stream_list(binding):
            program.commands.append(
                _stream_command(schedule, region, port, stream)
            )
    for port, binding in region.output_streams.items():
        for stream in as_stream_list(binding):
            program.commands.append(
                _stream_command(schedule, region, port, stream)
            )


def _stream_command(schedule, region, port, stream):
    if isinstance(stream, ConstStream):
        return Command(
            CommandKind.ISSUE_CONST, region=region.name, port=port,
            stream=stream, issue_cycles=2,
        )
    if isinstance(stream, RecurrenceStream):
        return Command(
            CommandKind.ISSUE_RECUR, region=region.name, port=port,
            stream=stream, issue_cycles=2,
        )
    memory = schedule.stream_binding.get((region.name, port), "")
    return Command(
        CommandKind.ISSUE_STREAM, region=region.name, port=port,
        memory=memory, stream=stream, issue_cycles=4,
    )
