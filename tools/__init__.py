"""Repository tooling (not shipped inside the ``repro`` package).

``tools.staticcheck`` is the ``repro-lint`` static-analysis suite: the AST
passes and the repo-hygiene checks, one registry and one entry point
(``python -m tools.staticcheck``).
"""
