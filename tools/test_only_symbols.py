#!/usr/bin/env python3
"""Gate on public API that only tests reach.

Lists every public name declared in src/**/*.h -- namespace-scope classes,
structs, enums, aliases, functions and constants, and the public members of
classes and structs -- that no code outside tests/ and outside the name's
own header/source pair (src/x/y.h and src/x/y.cc) mentions. Code means
src/, bench/, examples/, perfbench/ and tools/ with comments stripped, so a
comment that names a symbol is not a caller.

The committed tools/test_only_symbols.txt holds the names that may stay
that way, one per line, each with its reason after a '#':

  data/bucketizer.h UniformBucketizer::LowerBound  # test reference: ...

A reason starts with one of the kinds in REASON_KINDS:

  test reference  a plain or closed-form version of what the deployed path
                  computes, kept so tests can check that path against it;
  test hook       lets tests reach or steer internals (force a kernel
                  build, swap the registry, read a counter, build fixtures);
  own file        the pair's own code uses it (a member its .cc calls, a
                  field it fills or reads, a type or constant of its own
                  signatures) and no other file happens to spell it;
  front door      documented public API with no deployed or example caller
                  yet: each one still needs a caller or deletion.

The check fails
(exit 1) when a listed name is found that the file does not list, when the
file lists a name that is no longer test-only or no longer exists, or when
an entry has no valid reason. A new public function that only a test calls
therefore fails CI until it gets a deployed caller, is deleted, or is
listed with its reason.

The scan is lexical, not a C++ parser. A name is matched as a whole word,
so a member that shares its name with something used elsewhere (size, n,
Name) never shows up as test-only.

Usage:
  tools/test_only_symbols.py            # check against the committed file
  tools/test_only_symbols.py --list     # print the current findings
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ("src", "bench", "examples", "perfbench", "tools")
CODE_SUFFIXES = (".h", ".cc", ".cpp", ".py")
LIST_FILE = os.path.join("tools", "test_only_symbols.txt")
SELF = (os.path.join("tools", "test_only_symbols.py"), LIST_FILE)
REASON_KINDS = ("test reference", "test hook", "own file", "front door")

KEYWORDS = {
    "alignas", "const", "constexpr", "consteval", "decltype", "explicit",
    "extern", "friend", "inline", "mutable", "noexcept", "operator",
    "override", "return", "sizeof", "static", "static_assert", "template",
    "typename", "virtual", "final", "default", "delete", "if", "for",
    "while", "switch", "requires",
}


def strip_comments(text, strings=False):
    """Blanks out // and /* */ comments (and string literals if asked)."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            i = n if j < 0 else j + 2
            out.append(" ")
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c if strings else text[i:j + 1])
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def strip_python_comments(text):
    return "\n".join(line.split("#", 1)[0] for line in text.splitlines())


def strip_preprocessor(text):
    """Drops preprocessor lines, including backslash continuations."""
    lines, skipping = [], False
    for line in text.splitlines():
        if skipping or line.lstrip().startswith("#"):
            skipping = line.rstrip().endswith("\\")
            lines.append("")
        else:
            lines.append(line)
    return "\n".join(lines)


def strip_templates(stmt):
    """Removes template<...> heads and <...> argument lists."""
    stmt = re.sub(r"\btemplate\s*", "", stmt)
    prev = None
    while prev != stmt:
        prev = stmt
        stmt = re.sub(r"<[^<>;{}()]*>", " ", stmt)
    return stmt


def declared_name(stmt, scope_class):
    """The name a declaration statement introduces, or None."""
    stmt = " ".join(strip_templates(stmt).split())
    if not stmt or stmt.startswith(("friend ", "static_assert",
                                    "using namespace")):
        return None
    m = re.match(r"using (\w+) =", stmt)
    if m:
        return m.group(1)
    if stmt.startswith("using "):
        return None
    m = re.match(r"(?:enum (?:class |struct )?|class |struct |union )"
                 r"(?:\w+ )*?(\w+)(?: final)?\s*(?::[^:]|$)", stmt + " ")
    if m and not re.match(r"(class|struct|union|enum)\b.*\(", stmt):
        return m.group(1)
    if "operator" in stmt.split("(")[0]:
        return None
    depth, cut = 0, None
    for k, c in enumerate(stmt):
        if c in "([":
            if depth == 0 and c == "(" and cut is None:
                cut = k
            depth += 1
        elif c in ")]":
            depth -= 1
        elif c in "={" and depth == 0 and cut is None:
            cut = k
            break
    head = stmt[:cut] if cut is not None else stmt
    names = [w for w in re.findall(r"~?[A-Za-z_]\w*", head)
             if w not in KEYWORDS]
    if not names:
        return None
    name = names[-1]
    if name.startswith("~") or name == scope_class or name.isupper():
        return None
    if cut is None or stmt[cut] != "(":
        # A variable or data member: needs a type before the name.
        if len(names) < 2:
            return None
    return name


def scan_header(path):
    """The qualified public names declared in one header, sorted."""
    text = strip_preprocessor(strip_comments(open(path).read(), strings=True))
    # Scope stack entries: [kind, name, public].
    stack = [["namespace", "", True]]
    stmt = []
    parens = 0  # A brace inside parentheses is a default argument's {}.
    found = []

    def visible():
        for kind, name, public in stack:
            if kind == "namespace" and name == "<anon>":
                return False
            if kind in ("class", "struct") and not public:
                return False
            if kind in ("enum", "block"):
                return False
        return True

    def qualify(name):
        parts = [s[1] for s in stack if s[0] in ("class", "struct")]
        return "::".join(parts + [name])

    for c in text:
        parens += {"(": 1, ")": -1}.get(c, 0)
        if c not in ";{}" or parens:
            stmt.append(c)
            continue
        s = "".join(stmt).strip()
        stmt = []
        if c == "}":
            stack.pop()
            continue
        access = re.match(r"^(public|private|protected)\s*:\s*", s)
        while access and stack[-1][0] in ("class", "struct"):
            stack[-1][2] = access.group(1) == "public"
            s = s[access.end():]
            access = re.match(r"^(public|private|protected)\s*:\s*", s)
        kind = stack[-1][0]
        decl_scope = kind in ("namespace", "class", "struct")
        scope_class = stack[-1][1] if kind in ("class", "struct") else None
        name = declared_name(s, scope_class) if decl_scope else None
        opened = None
        if c == "{":
            ns = re.match(r"namespace\s*(\w*)", s)
            cls = re.match(r"(?:template\s*<.*>\s*)?(class|struct)\s", s)
            if ns and decl_scope:
                opened = ["namespace", ns.group(1) or "<anon>", True]
                name = None
            elif cls and "(" not in s and "=" not in s:
                kind = cls.group(1)
                opened = [kind, name or "<anon>", kind == "struct"]
            elif s.startswith("enum"):
                opened = ["enum", name, False]
            else:
                opened = ["block", "", False]
        elif re.match(r"(class|struct|enum)\s+\w+$", s):
            name = None  # A forward declaration.
        if name and visible():
            found.append(qualify(name))
        if opened:
            stack.append(opened)
    return sorted(set(found))


def load_callers():
    """Comment-stripped code of every caller file, keyed by relative path."""
    code = {}
    for top in CALLER_DIRS:
        for dirpath, _, files in os.walk(os.path.join(ROOT, top)):
            for f in files:
                if not f.endswith(CODE_SUFFIXES):
                    continue
                full = os.path.join(dirpath, f)
                rel = os.path.relpath(full, ROOT)
                if rel in SELF:
                    continue
                text = open(full, encoding="utf-8", errors="replace").read()
                code[rel] = (strip_python_comments(text) if f.endswith(".py")
                             else strip_comments(text))
    return code


def find_test_only():
    """{header (relative to src/) + ' ' + qualified name} with no caller."""
    code = load_callers()
    findings = set()
    src = os.path.join(ROOT, "src")
    for dirpath, _, files in os.walk(src):
        for f in files:
            if not f.endswith(".h"):
                continue
            header = os.path.relpath(os.path.join(dirpath, f), ROOT)
            own = {header, header[:-2] + ".cc"}
            for qualified in scan_header(os.path.join(ROOT, header)):
                name = qualified.split("::")[-1]
                word = re.compile(r"\b%s\b" % re.escape(name))
                if not any(word.search(text) for rel, text in code.items()
                           if rel not in own):
                    findings.add("%s %s" % (os.path.relpath(header, "src"),
                                            qualified))
    return findings


def load_list():
    entries, errors = {}, []
    with open(os.path.join(ROOT, LIST_FILE)) as f:
        for lineno, line in enumerate(f, 1):
            if not line.strip() or line.startswith("#"):
                continue
            key, _, reason = line.partition("#")
            key = " ".join(key.split())
            reason = reason.strip()
            if not reason.startswith(REASON_KINDS):
                errors.append("%s:%d: '%s' needs a reason starting with one "
                              "of %s" % (LIST_FILE, lineno, key,
                                         ", ".join(REASON_KINDS)))
            entries[key] = reason
    return entries, errors


def main(argv):
    findings = find_test_only()
    if "--list" in argv:
        for key in sorted(findings):
            print(key)
        return 0
    entries, errors = load_list()
    for key in sorted(findings - set(entries)):
        errors.append("%s is public API that only tests reach: give it a "
                      "deployed caller, delete it, or list it in %s with its "
                      "reason" % (key, LIST_FILE))
    for key in sorted(set(entries) - findings):
        errors.append("%s is listed in %s but is no longer test-only (or no "
                      "longer exists): remove its line" % (key, LIST_FILE))
    for e in errors:
        print("error: " + e, file=sys.stderr)
    if errors:
        return 1
    print("ok: %d test-only public names, all listed with a reason"
          % len(findings))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
