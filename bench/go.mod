module dust/bench

go 1.22

require dust v0.0.0

replace dust => ../
