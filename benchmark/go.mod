module sparta/benchmark

go 1.24

require sparta v0.0.0

replace sparta => ../
