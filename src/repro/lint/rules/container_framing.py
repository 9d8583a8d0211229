"""R006: frame preamble handling lives in ``algorithms/container.py`` only.

The streaming refactor extracted every codec's inline magic/version/varint
preamble handling into the declarative :class:`~repro.algorithms.container.
FrameSpec` layer. This rule keeps it that way: outside ``container.py``, a
magic constant (``MAGIC``, ``*_MAGIC``, ``STREAM_IDENTIFIER``) may be
*defined* and may be handed to a container-layer call as a keyword argument
(``FrameSpec(magic=MAGIC)``), but may not be read anywhere else — comparing,
slicing or concatenating a magic inline is exactly the per-codec preamble
duplication the container layer exists to prevent.

The codec-graph frame extends the fence: a stage's numeric wire id
(``STAGE_ID``) is descriptor-table plumbing, so outside the stage registry
(``algorithms/stages.py``) and the container layer it may not be read at
all — graph code maps stages to wire ids through
``descriptor_for()``/``stage_from_descriptor()``, never by consuming ids
inline.

The rule is baseline-free by design: new hits are fixed by routing the byte
handling through :class:`FrameSpec`, not by baselining.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List, Set

from repro.lint.common import SyntaxIndex, dotted_name, is_test_path, normalize_rel
from repro.lint.engine import ModuleContext, ProjectContext
from repro.lint.findings import Finding, Severity
from repro.lint.registry import Rule, register

#: Identifier shapes that name a frame magic / stream identifier constant.
_MAGIC_NAME = re.compile(r"^(MAGIC|[A-Z0-9_]+_MAGIC|STREAM_IDENTIFIER)$")

#: Identifier naming a stage's graph-frame wire id.
_STAGE_ID_NAME = re.compile(r"^STAGE_ID$")

#: The one module allowed to manipulate preamble bytes directly.
_CONTAINER_MODULE = "algorithms/container.py"

#: The one module (besides the container) allowed to read stage wire ids.
_STAGES_MODULE = "algorithms/stages.py"


@register
class ContainerFramingRule(Rule):
    code = "R006"
    name = "container-framing"
    summary = "magic/preamble byte handling belongs to algorithms/container.py"
    default_severity = Severity.ERROR

    def check(self, project: ProjectContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for ctx in project.modules:
            if is_test_path(ctx.rel):
                continue
            findings.extend(self._check_module(ctx))
        return findings

    def _check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        allowed = self._keyword_argument_nodes(ctx.syntax)
        module = normalize_rel(ctx.rel)
        check_magic = module != _CONTAINER_MODULE
        check_stage_ids = module not in (_CONTAINER_MODULE, _STAGES_MODULE)
        for node in ctx.syntax.nodes(ast.Name, ast.Attribute):
            if not isinstance(node.ctx, ast.Load):
                continue
            ident = node.id if isinstance(node, ast.Name) else node.attr
            if check_magic and _MAGIC_NAME.match(ident) and id(node) not in allowed:
                yield ctx.finding(
                    self,
                    node,
                    f"inline use of frame magic '{dotted_name(node) or ident}': "
                    "preamble byte handling belongs to the container layer — "
                    "declare a FrameSpec and use encode_preamble()/"
                    "decode_preamble() instead",
                )
            elif check_stage_ids and _STAGE_ID_NAME.match(ident):
                yield ctx.finding(
                    self,
                    node,
                    f"inline read of stage wire id '{dotted_name(node) or ident}': "
                    "graph descriptor handling belongs to the stage registry — "
                    "use descriptor_for()/stage_from_descriptor() instead",
                )

    @staticmethod
    def _keyword_argument_nodes(syntax: SyntaxIndex) -> Set[int]:
        """Nodes passed as ``keyword=`` arguments (the FrameSpec declaration
        idiom): the one sanctioned way to hand a magic to the container."""
        allowed: Set[int] = set()
        for node in syntax.nodes(ast.Call):
            for keyword in node.keywords:
                allowed.add(id(keyword.value))
        return allowed
