module decluster/bench

go 1.22

require decluster v0.0.0

replace decluster => ../
