"""Field names of the CLI outputs, read from docs/output_schemas.md."""

import re


def _expand(name):
    """`full_branch_1..4_mhz` -> full_branch_1_mhz ... full_branch_4_mhz."""
    m = re.fullmatch(r"(.*?)(\d+)\.\.(\d+)(.*)", name)
    if not m:
        return [name]
    return [f"{m[1]}{i}{m[4]}" for i in range(int(m[2]), int(m[3]) + 1)]


def parse_output_schemas(text):
    """Field names per `## \\`name\\`` section of docs/output_schemas.md, one list per table."""
    sections = {}
    current = None
    in_table = False
    for line in text.splitlines():
        heading = re.match(r"##\s+`([^`]+)`", line)
        if heading:
            current = heading[1]
            sections[current] = []
            in_table = False
            continue
        if current is None or not line.startswith("|"):
            in_table = False
            continue
        first = line.split("|")[1]
        names = re.findall(r"`([^`]+)`", first)
        if not names:  # header or separator row
            continue
        if not in_table:
            sections[current].append([])
            in_table = True
        sections[current][-1].extend(n for name in names for n in _expand(name))
    return sections
