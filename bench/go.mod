module sae/bench

go 1.22

require sae v0.0.0

replace sae => ../
