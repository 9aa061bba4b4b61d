"""The developer-facing programming interface (Appendix D, Table 4).

Dordis is "proactively designed to be complementary to existing DPFL
frameworks": developers customize distributed-DP algorithms and
applications by subclassing a small set of base classes:

==================  ======================================================
base class          customization
==================  ======================================================
ProtocolServer      ``set_graph_dict()`` declares the workflow's
                    operations, resources, and dependencies (for pipeline
                    planning); one coordination method per operation.
ProtocolClient      ``set_routine()`` maps each server request to a
                    client-side handler method.
DPHandler           ``init_params`` / ``encode_data`` / ``decode_data``.
Suite.ka, .ae,      the security primitives' handler slots (key agreement,
.ss, .prg,          AE, secret sharing, PRG) and the entropy source: pass
.entropy            ``suite=`` to a SecAgg/XNoise client or server to
                    swap implementations (:mod:`repro.crypto.suite`).
AppServer           ``use_output()`` — what the server does with the
                    aggregate.
AppClient           ``prepare_data()`` / ``use_output()``.
==================  ======================================================

:meth:`repro.engine.RoundEngine.run_round` executes a (server, clients)
pair: it walks the server's declared workflow in dependency order,
dispatching client-side operations through each client's routine table
— the same mechanism the built-in protocols use, exposed for extension.
"""

from repro.api.handlers import (
    DPHandler,
    PlainDPHandler,
    SkellamDPHandler,
)
from repro.crypto.suite import Suite
from repro.api.protocol import ProtocolServer, ProtocolClient, WorkflowError
from repro.api.app import AppServer, AppClient

__all__ = [
    "DPHandler",
    "PlainDPHandler",
    "SkellamDPHandler",
    "Suite",
    "ProtocolServer",
    "ProtocolClient",
    "WorkflowError",
    "AppServer",
    "AppClient",
]
