"""R009 negative: the module that constructs tables may write them."""


def pad(table, width, blank):
    for row in table.grid:
        row.extend(blank for _ in range(width - len(row)))
    table.num_header_rows = min(table.num_header_rows, len(table.grid))
    return table
