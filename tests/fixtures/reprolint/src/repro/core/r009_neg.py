"""R009 negative: reads, new tables, local copies, other classes' fields."""


class PartView:
    def __init__(self, table):
        self.num_header_rows = table.num_header_rows  # own attribute
        self.context = list(table.context)  # own attribute, a copy
        self.context.append("extra")  # mutates the copy this class owns


def widen(table, make_table, extra_row):
    grid = [list(row) for row in table.grid]  # a copy, then a new table
    grid.append(extra_row)
    grid[0][0] = extra_row[0]
    rows = sorted(table.grid, key=len)  # sorted() copies
    return make_table(grid=grid, context=table.context), rows


def header_width(table):
    return len(table.grid[table.num_title_rows]) if table.grid else 0
