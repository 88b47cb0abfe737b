def churn(items, blocked):
    order = []
    label = ""
    for item in items:
        order.insert(0, item)
        if item in [1, 2, 3]:
            continue
        label += "x"
    return order, label, blocked
