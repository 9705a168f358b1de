#!/usr/bin/env python3
"""Traced, in-process run of the two tree checks (the `checks` workload).

Loads tools/cppc_analyze and tools/cppc_lint as modules and runs them
exactly as `--engine=syntactic` / `--engine=regex` over the tree do,
with timing wrappers around the analyzer's public entry points: the
lexical `Model` build and each rule function (S1 C1 H2 X1 CP1), plus
the linter's `run_lint`.  Prints one JSON object: per-layer seconds,
file count, findings per tool, and the in-process wall.

    python3 perfbench/checks_trace.py --root DIR [--untraced|--setup-only]

--untraced runs the same code with no wrappers installed: the baseline
of the traced run's overhead.

--setup-only stops after importing both tools, loading their configs
and collecting the file lists: what a checker run does before it
parses its first file.
"""

import argparse
import importlib.util
import json
import os
import sys
import time


def load_tool(root, rel, name):
    spec = importlib.util.spec_from_file_location(name,
                                                  os.path.join(root, rel))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--untraced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = os.path.abspath(args.root)

    t_start = time.perf_counter()
    analyze = load_tool(root, "tools/cppc_analyze/cppc_analyze.py",
                        "cppc_analyze")
    lint = load_tool(root, "tools/cppc_lint/cppc_lint.py", "cppc_lint")
    a_cfg = analyze.Config.load(analyze.CONFIG_PATH)
    a_rels = analyze.collect_files(root, a_cfg.include, a_cfg.exclude, [])
    l_cfg = lint.Config.load(lint.CONFIG_PATH)
    l_rels = lint.collect_files(root, l_cfg.include, l_cfg.exclude, [])
    if args.setup_only:
        return 0

    spans = {}
    files = []

    def timed(name, fn):
        if args.untraced:
            return fn

        def wrapper(*a, **k):
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                spans[name] = spans.get(name, 0.0) + \
                    time.perf_counter() - t0
        return wrapper

    model_cls = analyze.Model

    def build_model(root_dir, rels):
        files.append(len(rels))
        return model_cls(root_dir, rels)

    analyze.Model = timed("tools.model_build_s", build_model)
    for rule in analyze.RULES:
        analyze.RULE_FNS[rule] = timed("tools.analyze.%s_s" % rule,
                                       analyze.RULE_FNS[rule])
    a_findings, _ = analyze.run_analyze(root, a_cfg, a_rels, analyze.RULES,
                                        "syntactic", None, True)
    run_lint = timed("tools.lint_s", lint.run_lint)
    l_findings, _ = run_lint(root, l_cfg, l_rels, lint.RULES, "regex",
                             None, True)
    wall = time.perf_counter() - t_start

    print(json.dumps({
        "spans": spans,
        "files": files[0] if files else 0,
        "lint_files": len(l_rels),
        "analyze_findings": len(a_findings),
        "lint_findings": len(l_findings),
        "wall_s": wall,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
