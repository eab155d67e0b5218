module salus/bench

go 1.22

require salus v0.0.0

replace salus => ../
