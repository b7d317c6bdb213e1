import launch

launch.pin_environment()
