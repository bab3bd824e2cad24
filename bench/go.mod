module hublab/bench

go 1.24

require hublab v0.0.0

replace hublab => ../
