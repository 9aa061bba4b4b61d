"""ProtocolServer / ProtocolClient base classes (Appendix D).

A protocol is declared, not hard-coded:

- the **server** overrides :meth:`ProtocolServer.set_graph_dict` to
  describe its workflow — one entry per operation with the dominant
  resource and dependency edges.  Dordis uses the declaration both to
  drive execution order and to plan pipeline acceleration (§4): the
  resource annotations are what the stage-grouping of Table 1 is built
  from.  One coordination method per operation carries the server-side
  logic.
- each **client** overrides :meth:`ProtocolClient.set_routine` to map
  request names to handler methods, mirroring the paper's "specify which
  part of the client workflow is triggered by a specific server request".
"""

from __future__ import annotations

from repro.pipeline.stages import Resource, Stage


class WorkflowError(Exception):
    """Malformed workflow declaration (unknown resource, cycle, …)."""


_VALID_RESOURCES = {r.value for r in Resource}


class ProtocolServer:
    """Base class for server-side protocol workflows.

    One optional seam beside the coordination methods: a server that
    defines ``receive_response(op, client_id, response)`` is handed
    every client response the moment its delivery completes, before the
    operation's other responses are in, and what it returns takes the
    response's place in the dict the next coordination method receives
    — how SecAgg folds a masked input into its sum on arrival and keeps
    a receipt instead of the vector.  A server without it gets the
    responses as they were sent.
    """

    def set_graph_dict(self) -> dict:
        """Return ``{operation: {"resource": str, "deps": [operation…]}}``.

        Subclasses must override; the runtime validates and topologically
        orders the graph.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    def workflow_order(self) -> list[str]:
        """Validated topological order of the declared operations."""
        graph = self.set_graph_dict()
        if not graph:
            raise WorkflowError("empty workflow declaration")
        for op, spec in graph.items():
            resource = spec.get("resource")
            if resource not in _VALID_RESOURCES:
                raise WorkflowError(
                    f"operation {op!r}: unknown resource {resource!r} "
                    f"(choose from {sorted(_VALID_RESOURCES)})"
                )
            for dep in spec.get("deps", []):
                if dep not in graph:
                    raise WorkflowError(
                        f"operation {op!r} depends on undeclared {dep!r}"
                    )
        order: list[str] = []
        state: dict[str, int] = {}

        def visit(op: str) -> None:
            if state.get(op) == 1:
                raise WorkflowError(f"workflow cycle through {op!r}")
            if state.get(op) == 2:
                return
            state[op] = 1
            for dep in graph[op].get("deps", []):
                visit(dep)
            state[op] = 2
            order.append(op)

        for op in graph:
            visit(op)
        return order

    def pipeline_stages(self) -> list[Stage]:
        """The stages of :func:`stage_groups`, without their ops."""
        return [stage for stage, _ops in stage_groups(self)]

    def operation_method(self, op: str):
        """The coordination method for ``op`` (e.g. ``encode_data``)."""
        method = getattr(self, op, None)
        if method is None or not callable(method):
            raise WorkflowError(
                f"server declares operation {op!r} but defines no "
                f"method of that name"
            )
        return method


def stage_groups(server: ProtocolServer) -> list[tuple[Stage, list[str]]]:
    """(stage, ops) pairs: consecutive same-resource ops merged (§4.1).

    The §4.1 grouping applied to the declared workflow — the minimum
    scheduling units pipeline planning operates on — walked once: the
    engine's executor, :class:`repro.engine.StageTiming` and
    :meth:`ProtocolServer.pipeline_stages` all read it from here.
    """
    graph = server.set_graph_dict()
    groups: list[tuple[Stage, list[str]]] = []
    for op in server.workflow_order():
        resource = Resource(graph[op]["resource"])
        if groups and groups[-1][0].resource is resource:
            stage, ops = groups[-1]
            ops.append(op)
            groups[-1] = (Stage(f"{stage.name}+{op}", resource), ops)
        else:
            groups.append((Stage(op, resource), [op]))
    return groups


class ProtocolClient:
    """Base class for client-side protocol participants."""

    def __init__(self, client_id: int):
        self.id = client_id

    def set_routine(self) -> dict:
        """Return ``{request_name: handler}``; subclasses override."""
        raise NotImplementedError

    def handle(self, request: str, payload):
        """Dispatch one server request through the routine table."""
        routine = self.set_routine()
        handler = routine.get(request)
        if handler is None:
            raise WorkflowError(
                f"client {self.id} has no handler for request {request!r} "
                f"(routine handles {sorted(routine)})"
            )
        return handler(payload)
