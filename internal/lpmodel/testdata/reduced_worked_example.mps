NAME          worked_example
ROWS
 N  COST
 E  c0
COLUMNS
    x0        COST       2
    x0        c0         1
    x1        COST       4
    x1        c0         1
RHS
    RHS       c0        1
ENDATA
