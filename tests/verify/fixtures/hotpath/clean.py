def tally(rows, k):
    base = [k, k + 1]
    total = 0
    for row in rows:
        total += base[0] * row
    return total
