module celeste/bench

go 1.24

require celeste v0.0.0

replace celeste => ../
