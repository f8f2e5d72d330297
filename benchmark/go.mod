module smokescreen/benchmark

go 1.22

require smokescreen v0.0.0

replace smokescreen => ../
