"""Command-line driver for imc-analyze.

    imc-analyze [paths...]                 analyze (default: src bench tests
                                           examples, relative to the repo root)
      --rule RULE          run only RULE (repeatable)
      --disable RULE       skip RULE (repeatable)
      --baseline FILE      tolerate findings fingerprinted in FILE
      --write-baseline F   write the current findings to F and exit 0
      --sarif FILE         also write a SARIF 2.1.0 report
      --list-rules         print the rule table and exit

Exit status: 0 clean (or baselined-only), 1 non-baselined findings,
2 usage error.

Suppress a single finding with a comment on the offending line or the line
above, stating why:

    // justification here. imc-analyze: allow(rule-id)
"""

import argparse
import os
import re
import sys

from analyze import __version__, baseline as baseline_mod, sarif as sarif_mod
from analyze.rules import RULES, Context
from analyze.tokens import tokenize

ALLOW = re.compile(r"imc-analyze:\s*allow\(([\w,\s-]+)\)")
SOURCE_EXTS = (".h", ".hpp", ".cpp", ".cc", ".cxx")
DEFAULT_TARGETS = ("src", "bench", "tests", "examples")
# The fixture corpus is deliberately-bad code; directory walks skip it (the
# fixture test driver passes those files explicitly, which bypasses this).
EXCLUDED_SUBTREES = (os.path.join("tests", "analyze"),)


def repo_root_for(path):
    """Nearest ancestor containing .git, else the path's directory."""
    p = os.path.abspath(path)
    if os.path.isfile(p):
        p = os.path.dirname(p)
    while True:
        if os.path.exists(os.path.join(p, ".git")):
            return p
        parent = os.path.dirname(p)
        if parent == p:
            return os.path.dirname(os.path.abspath(path)) or os.getcwd()
        p = parent


def discover(targets):
    files, missing = [], []
    for target in targets:
        if os.path.isfile(target):
            files.append(target)
            continue
        if not os.path.isdir(target):
            missing.append(target)
            continue
        for root, dirs, names in os.walk(target):
            rel = os.path.normpath(root)
            if any(sub in rel for sub in EXCLUDED_SUBTREES):
                dirs[:] = []
                continue
            files.extend(os.path.join(root, n) for n in sorted(names)
                         if n.endswith(SOURCE_EXTS))
    return sorted(set(files)), missing


def allowed_rules(raw_lines, lineno):
    """Rule ids suppressed for 1-based lineno (same line or the line above)."""
    rules = set()
    for idx in (lineno - 1, lineno - 2):
        if 0 <= idx < len(raw_lines):
            m = ALLOW.search(raw_lines[idx])
            if m:
                rules.update(r.strip() for r in m.group(1).split(","))
    return rules


def analyze_file(path, enabled):
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"imc-analyze: cannot read {path}: {e}", file=sys.stderr)
        return [], []
    raw_lines = text.split("\n")
    ctx = Context(path, tokenize(text), raw_lines)
    findings, suppressed = [], []
    for rule_id in enabled:
        fn, applies, _ = RULES[rule_id]
        if not applies(ctx):
            continue
        for finding in fn(ctx):
            if finding.rule in allowed_rules(raw_lines, finding.line):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, raw_lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="imc-analyze", add_help=True,
        description="determinism & coroutine-safety static analysis")
    parser.add_argument("paths", nargs="*")
    parser.add_argument("--rule", action="append", default=[])
    parser.add_argument("--disable", action="append", default=[])
    parser.add_argument("--baseline")
    parser.add_argument("--write-baseline")
    parser.add_argument("--sarif")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--version", action="version",
                        version=f"imc-analyze {__version__}")
    args = parser.parse_args(argv)

    if args.list_rules:
        width = max(len(r) for r in RULES)
        for rule_id, (_, _, desc) in sorted(RULES.items()):
            print(f"  {rule_id:<{width}}  {desc}")
        return 0

    for rule_id in args.rule + args.disable:
        if rule_id not in RULES:
            print(f"imc-analyze: unknown rule '{rule_id}' "
                  f"(see --list-rules)", file=sys.stderr)
            return 2
    enabled = [r for r in RULES
               if (not args.rule or r in args.rule)
               and r not in args.disable]

    targets = args.paths
    if not targets:
        root = repo_root_for(os.getcwd())
        targets = [os.path.join(root, t) for t in DEFAULT_TARGETS
                   if os.path.isdir(os.path.join(root, t))]
    files, missing = discover(targets)
    if missing:
        for m in missing:
            print(f"imc-analyze: no such file or directory: {m}",
                  file=sys.stderr)
        return 2
    if not files:
        print("imc-analyze: no C++ sources found", file=sys.stderr)
        return 2

    repo_root = repo_root_for(files[0])
    all_findings = []
    lines_by_path = {}
    for path in files:
        findings, raw_lines = analyze_file(path, enabled)
        all_findings.extend(findings)
        lines_by_path[path] = raw_lines

    def line_text(f):
        lines = lines_by_path.get(f.path, [])
        return lines[f.line - 1] if 0 < f.line <= len(lines) else ""

    with_prints = [
        (f, baseline_mod.fingerprint(f, repo_root, line_text(f)))
        for f in all_findings
    ]

    if args.write_baseline:
        baseline_mod.save(args.write_baseline, with_prints)
        print(f"imc-analyze: wrote baseline with {len(with_prints)} "
              f"finding(s) to {args.write_baseline}")
        return 0

    known = {}
    if args.baseline:
        try:
            known = baseline_mod.load(args.baseline)
        except (ValueError, OSError) as e:
            print(f"imc-analyze: {e}", file=sys.stderr)
            return 2

    fresh = [(f, fp) for f, fp in with_prints if fp not in known]
    baselined = len(with_prints) - len(fresh)

    if args.sarif:
        sarif_mod.write(args.sarif, [f for f, _ in fresh], repo_root)

    for f, _ in sorted(fresh, key=lambda p: (p[0].path, p[0].line,
                                             p[0].rule)):
        print(f"{f.path}:{f.line}: [{f.rule}] {f.message}")
        print(f"    fix: {f.hint}")

    tail = f" ({baselined} baselined)" if baselined else ""
    if fresh:
        print(f"\nimc-analyze: {len(fresh)} finding(s) in {len(files)} "
              f"file(s){tail}. Suppress intentional ones with "
              "`imc-analyze: allow(<rule>)` and a justification.")
        return 1
    print(f"imc-analyze: {len(files)} file(s) clean, "
          f"{len(enabled)} rule(s){tail}")
    return 0
