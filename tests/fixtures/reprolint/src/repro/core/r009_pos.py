"""R009 positive: writes to a WebTable outside its constructor's module."""


def relabel(table, other):
    table.num_header_rows = 2  # line 5: flagged (field assigned)
    table.context += other.context  # line 6: flagged (augmented assignment)
    table.grid[0][1] = other.grid[0][1]  # line 7: flagged (item written)
    del table.grid[-1]  # line 8: flagged (item deleted)
    return table


def grow(problem, row, snippet):
    problem.tables[0].grid.append(row)  # line 13: flagged (mutating call)
    problem.tables[0].grid[0].reverse()  # line 14: flagged (row mutated)
    problem.tables[0].context.insert(0, snippet)  # line 15: flagged
    a, problem.tables[0].page_title = 1, "x"  # line 16: flagged (unpacking)
    return a
