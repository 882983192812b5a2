module rtsads/bench

go 1.22

require rtsads v0.0.0

replace rtsads => ../
